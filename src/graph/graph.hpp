#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hpp"
#include "util/ids.hpp"

namespace nc {

/// Immutable simple undirected graph in compressed-sparse-row form.
///
/// This is the communication graph of the CONGEST model (Section 2 of the
/// paper): nodes are processors, edges are links. Adjacency lists are sorted
/// by neighbor ID, which gives O(log deg) adjacency tests and deterministic
/// iteration order (the simulator depends on the latter for reproducibility).
class Graph {
 public:
  /// Builds a graph from an already-deduplicated, loop-free edge list.
  /// Most callers should use GraphBuilder instead.
  Graph(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Adopts an already-built CSR representation without copying — the
  /// escape hatch for bulk generators that produce adjacency directly
  /// (O(n + m), single pass of validation, no edge list materialized).
  ///
  /// Requirements (checked, throws std::invalid_argument):
  ///   - offsets.size() == n + 1, offsets[0] == 0, offsets non-decreasing,
  ///     offsets[n] == adj.size();
  ///   - every row offsets[v]..offsets[v+1] is strictly increasing (sorted,
  ///     no duplicates), in [0, n) and free of self-loops.
  /// Symmetry (u in adj[v] <=> v in adj[u]) is the caller's responsibility
  /// and is verified in debug builds only.
  static Graph from_csr(NodeId n, std::vector<std::size_t> offsets,
                        std::vector<NodeId> adj);

  /// Number of nodes.
  [[nodiscard]] NodeId n() const noexcept { return n_; }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t m() const noexcept { return adj_.size() / 2; }

  /// Sorted neighbors of `v`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + offset_[v], offset_[v + 1] - offset_[v]};
  }

  /// Every adjacency row concatenated in node order: the i-th neighbour of
  /// `v` sits at index offset(v) + i, so the array maps a directed edge of
  /// the CSR layout to its target.
  [[nodiscard]] std::span<const NodeId> adjacency() const noexcept {
    return adj_;
  }

  /// Degree of `v`.
  [[nodiscard]] std::size_t degree(NodeId v) const noexcept {
    return offset_[v + 1] - offset_[v];
  }

  /// True if {u, v} is an edge (binary search; u == v returns false).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Neighborhood of `v` as an n-bit indicator. O(deg) to build; callers that
  /// probe many pairs against the same vertex should cache this.
  [[nodiscard]] BitVec neighbor_mask(NodeId v) const;

  /// All edges as (u, v) pairs with u < v, sorted.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edge_list() const;

 private:
  Graph() = default;  // for from_csr

  NodeId n_ = 0;
  std::vector<std::size_t> offset_;
  std::vector<NodeId> adj_;
};

}  // namespace nc
