#pragma once

#include <cstdint>

#include "runtime/network.hpp"
#include "util/ids.hpp"

namespace nc {

/// Parameters of Algorithm DistNearClique (Section 4) plus the knobs of the
/// two Section 4.1 wrappers (deterministic time bound, boosting).
struct ProtocolParams {
  /// The near-clique parameter epsilon of the algorithm (the paper assumes
  /// eps < 1/3; larger values are meaningless per Theorem 5.7).
  double eps = 0.1;

  /// Sampling probability p: every node enters S i.i.d. with probability p.
  double p = 0.05;

  /// Number of boosting versions (lambda in Section 4.1). Each version is an
  /// independent sampling+exploration pass; a single decision stage selects
  /// among all versions' candidates. 1 = the plain algorithm.
  std::uint16_t versions = 1;

  /// Round budget per version window (the deterministic time bound of
  /// Section 4.1). Versions run in consecutive windows ("any interleaving
  /// order" includes the sequential one); a version whose exploration has
  /// not produced complete reports by its window's end contributes no
  /// candidates. 0 = auto: a single generous window.
  std::uint64_t version_budget = 0;

  /// Extra rounds granted to the decision stage after the last version
  /// window; all nodes force-resolve at the deadline. 0 = auto (4n + 256).
  std::uint64_t decision_budget = 0;

  /// Components with more than this many non-empty subsets (2^|S_i| - 1)
  /// abstain entirely; counted as a failure, consistent with Lemma 5.2's
  /// concentration bound and the time-bound wrapper.
  std::uint32_t max_subsets = 1u << 18;

  /// Candidates with |T_eps(X)| below this are never acknowledged (the
  /// paper's remark that small sets "can be disqualified if a lower bound on
  /// the size of the dense subgraph is known"). 0 disables the filter.
  std::uint32_t min_report_size = 0;

  /// Step 4f estimation (Section 5.3 remark): if non-zero, each node samples
  /// this many neighbours instead of inspecting all of them when computing
  /// |Gamma(u) ∩ K(X)|, reducing local computation to poly(|S|) per round at
  /// the cost of estimated (rather than exact) membership in T_eps(X).
  std::uint32_t sample_4f = 0;

  /// Inner relaxation used by T_eps: K_{2 eps^2}. Kept as a method so the
  /// protocol and the oracle cannot diverge.
  [[nodiscard]] double inner_eps() const noexcept { return 2.0 * eps * eps; }
};

/// Everything a driver needs to execute the protocol on a graph.
struct DriverConfig {
  ProtocolParams proto;
  NetConfig net;
};

/// The sampling probability Theorem 2.1 plugs into Theorem 5.7:
/// p = O(log(1/(eps*delta)) / (eps^4 * delta)) / n, with constant `c`.
/// Clamped to (0, 1].
double recommended_p(double eps, double delta, NodeId n, double c = 1.0);

/// Derived deadline helpers shared by protocol, driver and oracle tests.
struct Schedule {
  std::uint64_t version_budget;    ///< resolved (auto applied)
  std::uint64_t decision_budget;   ///< resolved (auto applied)
  std::uint16_t versions;

  /// First round of version w's window (w is 1-based).
  [[nodiscard]] std::uint64_t version_start(std::uint16_t w) const noexcept {
    return 1 + static_cast<std::uint64_t>(w - 1) * version_budget;
  }
  /// First round *after* version w's window.
  [[nodiscard]] std::uint64_t version_end(std::uint16_t w) const noexcept {
    return 1 + static_cast<std::uint64_t>(w) * version_budget;
  }
  /// Round at which every node force-resolves and terminates.
  [[nodiscard]] std::uint64_t decision_deadline() const noexcept {
    return version_end(versions) + decision_budget;
  }
};

/// Resolves auto budgets against the network size and round limit. Throws
/// std::invalid_argument, naming the minimum, when the version budget is
/// auto and `max_rounds` does not exceed the decision budget + 16.
Schedule make_schedule(const ProtocolParams& proto, NodeId n,
                       std::uint64_t max_rounds);

}  // namespace nc
