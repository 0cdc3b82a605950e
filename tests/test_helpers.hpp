#pragma once

#include <cstdint>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "runtime/stream.hpp"
#include "util/ids.hpp"

namespace nc::testing {

/// Delivers one `width`-bit symbol to `s`, as a one-word staged payload.
inline void deliver_symbol(InStream& s, std::uint64_t value, unsigned width) {
  s.deliver(&value, width);
}

/// K5 with one extra pendant vertex (6 nodes) — the standard small fixture.
inline Graph clique_with_pendant() {
  GraphBuilder b(6);
  b.add_clique({0, 1, 2, 3, 4});
  b.add_edge(4, 5);
  return b.build();
}

/// Two disjoint triangles (6 nodes).
inline Graph two_triangles() {
  GraphBuilder b(6);
  b.add_clique({0, 1, 2});
  b.add_clique({3, 4, 5});
  return b.build();
}

/// Path of `n` nodes.
inline Graph path_graph(NodeId n) {
  GraphBuilder b(n);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < n; ++v) nodes.push_back(v);
  b.add_path(nodes);
  return b.build();
}

/// Cycle of `n` nodes.
inline Graph cycle_graph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

/// Complete graph K_n.
inline Graph complete_graph(NodeId n) {
  GraphBuilder b(n);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < n; ++v) nodes.push_back(v);
  b.add_clique(nodes);
  return b.build();
}

/// Star with `leaves` leaves (center = 0).
inline Graph star_graph(NodeId leaves) {
  GraphBuilder b(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) b.add_edge(0, v);
  return b.build();
}

}  // namespace nc::testing
