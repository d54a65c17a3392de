#include "diagonal/diagonal_u16.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace qokit {

namespace {

/// f(begin, end) over the kSimdBlock blocks of [0, count) under `exec`,
/// one result per block, in block order.
template <class R, class F>
std::vector<R> per_block(Exec exec, std::int64_t count, F&& f) {
  std::vector<R> out(
      static_cast<std::size_t>((count + kSimdBlock - 1) / kSimdBlock));
  parallel_for_blocks(exec, count, kSimdBlock,
                      [&](std::int64_t b, std::int64_t e) {
                        out[static_cast<std::size_t>(b / kSimdBlock)] =
                            f(b, e);
                      });
  return out;
}

}  // namespace

DiagonalU16 DiagonalU16::encode(const CostDiagonal& d, Exec exec) {
  DiagonalU16 out;
  out.n_ = d.num_qubits();
  const std::uint64_t dim = d.size();
  out.codes_.resize(dim);  // unwritten: the quantizing pass fills it
  const auto count = static_cast<std::int64_t>(dim);
  const double* values = d.data();

  const double lo = d.min_value();
  const double hi = d.max_value();
  out.offset_ = lo;

  // Prefer scale 1 when the shifted spectrum already fits uint16 and is
  // integral -- the exact LABS case from the paper. Otherwise spread the
  // range over all 65536 levels. The integrality test is an AND over
  // per-block flags (char, not bool: threads write distinct elements).
  const std::vector<char> integral_blocks =
      per_block<char>(exec, count, [=](std::int64_t b, std::int64_t e) {
        for (std::int64_t x = b; x < e; ++x) {
          const double shifted = values[x] - lo;
          if (!(std::abs(shifted - std::round(shifted)) < 1e-9))
            return char{0};
        }
        return char{1};
      });
  const bool integral =
      std::all_of(integral_blocks.begin(), integral_blocks.end(),
                  [](char ok) { return ok != 0; });
  if (integral && hi - lo <= 65535.0) {
    out.scale_ = 1.0;
  } else {
    out.scale_ = (hi > lo) ? (hi - lo) / 65535.0 : 1.0;
  }

  // Quantize block by block; each block reports its largest decode error
  // and the blocks' maxima combine by max, which no order can change.
  const double scale = out.scale_;
  std::uint16_t* codes = out.codes_.data();
  const std::vector<double> block_errors =
      per_block<double>(exec, count, [=](std::int64_t b, std::int64_t e) {
        double err = 0.0;
        for (std::int64_t x = b; x < e; ++x) {
          const double level = (values[x] - lo) / scale;
          const double clamped = std::clamp(std::round(level), 0.0, 65535.0);
          codes[x] = static_cast<std::uint16_t>(clamped);
          err = std::max(err, std::abs(lo + scale * clamped - values[x]));
        }
        return err;
      });
  double max_err = 0.0;
  for (const double err : block_errors) max_err = std::max(max_err, err);
  out.max_err_ = max_err;
  out.exact_ = max_err < 1e-12;
  return out;
}

template <class T>
void DiagonalU16::phase_table_into(
    double gamma, aligned_vector<std::complex<T>>& lut) const {
  lut.resize(65536);
  for (std::uint32_t c = 0; c < 65536; ++c) {
    const double ang = -gamma * (offset_ + scale_ * c);
    lut[c] = std::complex<T>(static_cast<T>(std::cos(ang)),
                             static_cast<T>(std::sin(ang)));
  }
}

template void DiagonalU16::phase_table_into(
    double, aligned_vector<std::complex<double>>&) const;
template void DiagonalU16::phase_table_into(
    double, aligned_vector<std::complex<float>>&) const;

}  // namespace qokit
