#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nc {

double recommended_p(double eps, double delta, NodeId n, double c) {
  const double inv = 1.0 / std::max(1e-9, eps * delta);
  const double numer = c * std::log(std::max(2.0, inv));
  const double denom = std::max(1e-12, eps * eps * eps * eps * delta);
  const double p = (numer / denom) / static_cast<double>(n);
  return std::clamp(p, 1e-9, 1.0);
}

Schedule make_schedule(const ProtocolParams& proto, NodeId n,
                       std::uint64_t max_rounds) {
  Schedule s;
  s.versions = std::max<std::uint16_t>(1, proto.versions);
  s.decision_budget = proto.decision_budget != 0
                          ? proto.decision_budget
                          : 4ULL * n + 256;
  if (proto.version_budget != 0) {
    s.version_budget = proto.version_budget;
  } else {
    // Auto: split whatever the round limit allows evenly across versions,
    // keeping the decision budget and a small safety margin. A limit that
    // leaves no round for the versions could only abort with every label
    // bottom, so it is rejected up front.
    const std::uint64_t margin = 16;
    if (max_rounds <= s.decision_budget + margin) {
      throw std::invalid_argument(
          "max_rounds " + std::to_string(max_rounds) +
          " leaves no round for the protocol: the auto version budget "
          "needs max_rounds >= " +
          std::to_string(s.decision_budget + margin + 1) +
          " (decision budget " + std::to_string(s.decision_budget) +
          " + a 16-round margin + 1)");
    }
    const std::uint64_t usable = max_rounds - s.decision_budget - margin;
    s.version_budget = std::max<std::uint64_t>(1, usable / s.versions);
  }
  return s;
}

}  // namespace nc
