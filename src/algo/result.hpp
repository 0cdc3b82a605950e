#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/accounting.hpp"
#include "runtime/telemetry.hpp"
#include "util/ids.hpp"

namespace nc {

/// Computation model an algorithm is accounted under. The registry stamps
/// every result with its model so comparisons (experiment E10, the sweep
/// runner) can report model-appropriate costs side by side.
enum class CostModel {
  kCongest,  ///< distributed, O(log n)-bit messages: rounds/bits meaningful
  kLocal,    ///< distributed, unbounded messages: local work dominates
  kCentral,  ///< centralized: local_ops only, rounds/bits are zero
};

/// Display name used in tables and JSON ("CONGEST", "LOCAL", "central").
const char* cost_model_name(CostModel model);

/// Common outcome of any registered algorithm (distributed protocol or
/// centralized baseline): a per-node labelling plus unified cost accounting.
/// Centralized baselines report their model-appropriate subset — stats is
/// all zeros and local_ops carries the work measure.
struct AlgoResult {
  CostModel model = CostModel::kCongest;

  /// Per-node output labels; kBottom = not in any reported near-clique.
  /// Centralized baselines label their found set with its smallest member.
  std::vector<Label> labels;

  /// Rounds / messages / wire bits (distributed models; zeros for central).
  RunStats stats;

  /// Summed local computation: protocol local ops, Bron-Kerbosch
  /// expansions (neighbors2), adjacency probes (ggr_find), or edge-work
  /// proxies for the centralized heuristics.
  std::uint64_t local_ops = 0;

  /// True when the run was cut short (round limit, stall, or an exhausted
  /// local-work budget).
  bool aborted = false;

  /// Engine per-phase profile (network-backed algorithms run with the
  /// 'profile' parameter set; all-zero otherwise — profiling costs the hot
  /// path clock reads, so it stays opt-in).
  NetProfile profile;

  /// Telemetry capture (network-backed algorithms run with tel_* params
  /// set; nullptr otherwise). Shared so sweep capture rows can hold the
  /// same object the adapter filled without copying sample columns.
  std::shared_ptr<Telemetry> telemetry;

  /// Termination post-mortem of an aborted network run (stall / round
  /// limit); !triggered() for clean runs and non-network baselines.
  StallReport stall;

  /// Groups nodes by non-bottom label.
  [[nodiscard]] std::map<Label, std::vector<NodeId>> clusters() const;

  /// The largest output cluster (empty when everything is bottom).
  [[nodiscard]] std::vector<NodeId> largest_cluster() const;

  /// FNV-1a (64-bit) over each label's 8 little-endian bytes, in node order:
  /// two runs label every node identically iff (barring collisions) their
  /// hashes agree. The end-to-end benchmark's label hash.
  [[nodiscard]] std::uint64_t label_hash() const;

  /// The model's headline cost: rounds under CONGEST, local_ops under
  /// LOCAL and central (the E10 comparison convention).
  [[nodiscard]] std::uint64_t headline_cost() const;

  /// One-line, model-appropriate cost summary for CLI output.
  [[nodiscard]] std::string cost_summary() const;
};

}  // namespace nc
