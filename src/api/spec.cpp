#include "api/spec.hpp"

#include <bit>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "dist/dist_fur.hpp"
#include "obs/obs.hpp"

namespace qokit {
namespace {

[[noreturn]] void bad_token(std::string_view token, std::string_view name) {
  throw std::invalid_argument("SimulatorSpec::parse: unrecognized token '" +
                              std::string(token) + "' in '" +
                              std::string(name) + "'");
}

/// Execution policy parse() assumes when no exec= option is given; also
/// the policy to_string() elides, so the canonical spelling stays short.
Exec default_exec(Backend backend) {
  return backend == Backend::Serial ? Exec::Serial : Exec::Parallel;
}

bool parse_backend(std::string_view token, Backend* out) {
  if (token == "auto") *out = Backend::Auto;
  else if (token == "serial") *out = Backend::Serial;
  else if (token == "u16") *out = Backend::U16;
  else if (token == "dist") *out = Backend::Dist;
  else return false;
  return true;
}

bool parse_mixer(std::string_view token, MixerType* out) {
  if (token == "x") *out = MixerType::X;
  else if (token == "xyring") *out = MixerType::XYRing;
  else if (token == "xycomplete") *out = MixerType::XYComplete;
  else return false;
  return true;
}

std::string_view mixer_token(MixerType mixer) {
  switch (mixer) {
    case MixerType::X: return "x";
    case MixerType::XYRing: return "xyring";
    default: return "xycomplete";
  }
}

[[noreturn]] void out_of_range_token(std::string_view token,
                                     std::string_view name) {
  throw std::invalid_argument("SimulatorSpec::parse: integer token '" +
                              std::string(token) + "' in '" +
                              std::string(name) +
                              "' is out of range for its option");
}

enum class IntParse { Ok, Bad, OutOfRange };

/// Strict full-token integer parse. Out-of-range digits are their own
/// outcome (never wrapped or truncated into *out) so callers can name the
/// overflow instead of reporting an "unrecognized token".
template <class Int>
IntParse parse_int(std::string_view token, Int* out) {
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ptr != token.data() + token.size() ||
      ec == std::errc::invalid_argument)
    return IntParse::Bad;
  if (ec == std::errc::result_out_of_range) return IntParse::OutOfRange;
  *out = value;
  return IntParse::Ok;
}

/// parse_int for option values: Ok on success, throws the out-of-range
/// diagnostic itself, and reports Bad as `false` for the caller's
/// bad_token path.
template <class Int>
bool parse_int_option(std::string_view token, std::string_view name,
                      Int* out) {
  switch (parse_int(token, out)) {
    case IntParse::Ok: return true;
    case IntParse::OutOfRange: out_of_range_token(token, name);
    default: return false;
  }
}

bool all_digits(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token)
    if (c < '0' || c > '9') return false;
  return true;
}

/// One "key=value" option; throws naming the token on a missing '=', an
/// unknown key, or a known key with a bad value.
void apply_option(std::string_view token, std::string_view name,
                  SimulatorSpec* spec) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) bad_token(token, name);
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = token.substr(eq + 1);
  bool ok = false;
  if (key == "mixer") {
    ok = parse_mixer(value, &spec->mixer);
  } else if (key == "exec") {
    ok = value == "serial" || value == "parallel";
    if (ok) spec->exec = value == "serial" ? Exec::Serial : Exec::Parallel;
  } else if (key == "ranks") {
    ok = parse_int_option(value, name, &spec->ranks) && spec->ranks >= 1;
  } else if (key == "weight") {
    ok = parse_int_option(value, name, &spec->initial_weight) &&
         spec->initial_weight >= 0;
  } else if (key == "seed") {
    ok = parse_int_option(value, name, &spec->sample_seed);
  } else if (key == "prec") {
    if (value == "auto") spec->prec = Prec::Auto, ok = true;
    else if (value == "f32") spec->prec = Prec::F32, ok = true;
    else if (value == "f64") spec->prec = Prec::F64, ok = true;
  }
  if (!ok) bad_token(token, name);
}

}  // namespace

std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::Auto: return "auto";
    case Backend::Serial: return "serial";
    case Backend::U16: return "u16";
    default: return "dist";
  }
}

SimulatorSpec SimulatorSpec::parse(std::string_view name) {
  SimulatorSpec spec;
  std::size_t pos = name.find(':');
  const std::string_view head = name.substr(0, pos);
  if (!parse_backend(head, &spec.backend)) bad_token(head, name);
  spec.exec = default_exec(spec.backend);

  // Remaining colon-separated tokens: the rank count of "dist:K" is the
  // one positional token; everything else is key=value.
  bool want_dist_ranks = spec.backend == Backend::Dist;
  while (pos != std::string_view::npos) {
    const std::size_t next = name.find(':', pos + 1);
    const std::string_view token =
        name.substr(pos + 1, next == std::string_view::npos
                                 ? std::string_view::npos
                                 : next - pos - 1);
    pos = next;
    if (want_dist_ranks && all_digits(token)) {
      // All-digit tokens that overflow int must fail as "out of range",
      // never wrap into a bogus rank count.
      if (parse_int(token, &spec.ranks) == IntParse::OutOfRange)
        out_of_range_token(token, name);
      if (spec.ranks < 1) bad_token(token, name);
      want_dist_ranks = false;
      continue;
    }
    want_dist_ranks = false;
    apply_option(token, name, &spec);
  }
  return spec;
}

std::string SimulatorSpec::to_string() const {
  std::string out(qokit::to_string(backend));
  if (backend == Backend::Dist) {
    out += ':' + std::to_string(ranks);
  } else if (ranks != 2) {
    // ranks is a dist-only knob, but the spec compares it, so the
    // canonical spelling must carry a non-default value to round-trip.
    out += ":ranks=" + std::to_string(ranks);
  }
  if (mixer != MixerType::X) {
    out += ":mixer=";
    out += mixer_token(mixer);
  }
  if (exec != default_exec(backend))
    out += exec == Exec::Serial ? ":exec=serial" : ":exec=parallel";
  if (initial_weight >= 0)
    out += ":weight=" + std::to_string(initial_weight);
  if (sample_seed != 1) out += ":seed=" + std::to_string(sample_seed);
  if (prec != Prec::Auto)
    out += prec == Prec::F32 ? ":prec=f32" : ":prec=f64";
  return out;
}

namespace {

/// True when the combination a spec resolves to can evolve f32 amplitudes:
/// the X mixer, on every backend. The xy mixers stay f64-only.
bool supports_f32(const SimulatorSpec& spec) {
  return spec.mixer == MixerType::X;
}

/// Resolve the effective amplitude precision. Explicit f32/f64 win (an
/// explicit f32 on an unsupported combination is validated by the caller
/// and throws); Auto consults QOKIT_PREC, where "f32" opts the whole
/// process into float amplitudes *where supported* — unsupported
/// combinations silently stay f64, so an env-driven f32 run (the CI
/// prec=f32 leg) still passes suites that exercise the xy mixers.
Precision resolve_precision(const SimulatorSpec& spec) {
  switch (spec.prec) {
    case Prec::F32: return Precision::F32;
    case Prec::F64: return Precision::F64;
    default: break;
  }
  const char* env = std::getenv("QOKIT_PREC");
  if (env && std::string_view(env) == "f32" && supports_f32(spec))
    return Precision::F32;
  return Precision::F64;
}

/// Last-resolution precision gauge (bits of the amplitude scalar), set on
/// every make_simulator call so dashboards can tell mixed-precision runs
/// apart without parsing spec strings.
void record_precision(Precision prec) {
  static const obs::Gauge bits = obs::gauge("qokit_precision_bits");
  bits.set(static_cast<double>(precision_bits(prec)));
}

}  // namespace

std::unique_ptr<QaoaFastSimulatorBase> make_simulator(
    const TermList& terms, const SimulatorSpec& spec) {
  const Precision prec = resolve_precision(spec);
  if (prec == Precision::F32 && !supports_f32(spec))
    throw std::invalid_argument(
        "make_simulator: prec=f32 supports the X mixer only (the xy "
        "mixers are f64-only)");
  record_precision(prec);
  switch (spec.backend) {
    case Backend::Dist:
      if (spec.mixer != MixerType::X)
        throw std::invalid_argument(
            "make_simulator: the dist backend supports only the X mixer");
      // The sharding math (countr_zero-derived slice sizes) is only
      // meaningful for power-of-two rank counts that fit the state; reject
      // anything else here, naming the value, instead of constructing a
      // simulator with empty or overlapping shards.
      if (spec.ranks < 1 ||
          !std::has_single_bit(static_cast<unsigned>(spec.ranks)))
        throw std::invalid_argument(
            "make_simulator: dist ranks must be a power of two >= 1, got " +
            std::to_string(spec.ranks));
      if (terms.num_qubits() < 63 &&
          static_cast<std::uint64_t>(spec.ranks) >
              (std::uint64_t{1} << terms.num_qubits()))
        throw std::invalid_argument(
            "make_simulator: " + std::to_string(spec.ranks) +
            " dist ranks exceed the 2^" + std::to_string(terms.num_qubits()) +
            " amplitudes of a " + std::to_string(terms.num_qubits()) +
            "-qubit problem");
      return std::make_unique<DistributedFurSimulator>(
          terms, DistConfig{.ranks = spec.ranks, .prec = prec});
    default: {
      FurConfig cfg;
      cfg.exec = spec.exec;
      cfg.mixer = spec.mixer;
      cfg.initial_weight = spec.initial_weight;
      cfg.prec = prec;
      if (spec.backend == Backend::U16) cfg.use_u16 = true;
      return std::make_unique<FurQaoaSimulator>(terms, cfg);
    }
  }
}

// The choose_simulator family (declared in fur/simulator.hpp) is defined
// here so the string grammar lives in exactly one place: every name goes
// through SimulatorSpec::parse and every simulator through make_simulator.

std::unique_ptr<QaoaFastSimulatorBase> choose_simulator(const TermList& terms,
                                                        std::string_view name) {
  return make_simulator(terms, SimulatorSpec::parse(name));
}

std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xyring(
    const TermList& terms, std::string_view name, int initial_weight) {
  SimulatorSpec spec = SimulatorSpec::parse(name);
  spec.mixer = MixerType::XYRing;
  spec.initial_weight = initial_weight;
  return make_simulator(terms, spec);
}

std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xycomplete(
    const TermList& terms, std::string_view name, int initial_weight) {
  SimulatorSpec spec = SimulatorSpec::parse(name);
  spec.mixer = MixerType::XYComplete;
  spec.initial_weight = initial_weight;
  return make_simulator(terms, spec);
}

}  // namespace qokit
