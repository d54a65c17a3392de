#include "optimize/params.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace qokit {
namespace {

/// Linear resampling of a length-p angle sequence onto p+1 points
/// (endpoints preserved): the INTERP idea of Zhou et al. -- optimal
/// schedules vary smoothly with the layer fraction l/p, so a depth-p
/// optimum is a good starting point one depth up.
std::vector<double> interp_one(const std::vector<double>& v) {
  const int p = static_cast<int>(v.size());
  std::vector<double> out(p + 1);
  for (int i = 0; i <= p; ++i) {
    // Position of the new angle inside the old index space.
    const double t = static_cast<double>(i) * (p - 1) / p;
    const int lo = static_cast<int>(t);
    const int hi = lo + 1 < p ? lo + 1 : p - 1;
    const double frac = t - lo;
    out[i] = (1.0 - frac) * v[lo] + frac * v[hi];
  }
  return out;
}

}  // namespace

void QaoaParams::check() const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument(
        "QaoaParams: " + std::to_string(gammas.size()) + " gammas but " +
        std::to_string(betas.size()) + " betas");
  for (std::size_t l = 0; l < gammas.size(); ++l)
    for (const auto& [name, angle] :
         {std::pair{"gamma", gammas[l]}, std::pair{"beta", betas[l]}})
      if (!std::isfinite(angle))
        throw std::invalid_argument(
            std::string("QaoaParams: ") + name + " at layer " +
            std::to_string(l) + " is not finite (" + std::to_string(angle) +
            ")");
}

std::vector<double> QaoaParams::flatten() const {
  std::vector<double> x;
  x.reserve(gammas.size() + betas.size());
  x.insert(x.end(), gammas.begin(), gammas.end());
  x.insert(x.end(), betas.begin(), betas.end());
  return x;
}

QaoaParams QaoaParams::unflatten(const std::vector<double>& x) {
  if (x.size() % 2 != 0)
    throw std::invalid_argument("QaoaParams::unflatten: odd length");
  const std::size_t p = x.size() / 2;
  QaoaParams out;
  out.gammas.assign(x.begin(), x.begin() + p);
  out.betas.assign(x.begin() + p, x.end());
  return out;
}

QaoaParams linear_ramp(int p, double dt) {
  if (p < 1) throw std::invalid_argument("linear_ramp: p must be >= 1");
  QaoaParams out;
  out.gammas.resize(p);
  out.betas.resize(p);
  for (int l = 0; l < p; ++l) {
    const double frac = (l + 0.5) / p;
    out.gammas[l] = dt * frac;
    out.betas[l] = -dt * (1.0 - frac);  // see header: annealing-consistent sign
  }
  return out;
}

QaoaParams interp_to_next_depth(const QaoaParams& params) {
  if (params.p() < 1)
    throw std::invalid_argument("interp_to_next_depth: empty schedule");
  QaoaParams out;
  out.gammas = interp_one(params.gammas);
  out.betas = interp_one(params.betas);
  return out;
}

}  // namespace qokit
