#include "baselines/neighbors2.hpp"

#include <algorithm>
#include <memory>

#include "graph/builder.hpp"
#include "graph/cliques.hpp"
#include "runtime/network.hpp"
#include "util/bitio.hpp"

namespace nc {

namespace {

enum NnMsg : std::uint16_t {
  kNnAdjacency = 1,  ///< my full neighbour list
  kNnClique = 2,     ///< the clique I chose (ID list)
};

class Neighbors2Node : public INode {
 public:
  explicit Neighbors2Node(const Neighbors2Params& params) : params_(params) {}

  void on_start(NodeApi& api) override {
    idw_ = id_width(api.n());
    auto ch = api.open_stream_all(StreamKey{kNnAdjacency, 0, 0});
    for (const NodeId u : api.neighbors()) ch.put(u, idw_);
    ch.close();
    api.set_alarm(1);
  }

  void on_round(NodeApi& api) override {
    switch (api.round()) {
      case 1: {
        // Assemble the closed neighbourhood's induced subgraph from the
        // received lists (edges between two of our neighbours appear in
        // both endpoints' lists; we use local indices).
        std::vector<NodeId> ball(api.neighbors().begin(),
                                 api.neighbors().end());
        ball.push_back(api.id());
        std::sort(ball.begin(), ball.end());
        auto local_of = [&](NodeId v) {
          const auto it = std::lower_bound(ball.begin(), ball.end(), v);
          return it != ball.end() && *it == v
                     ? static_cast<NodeId>(it - ball.begin())
                     : kNoNode;
        };
        GraphBuilder builder(static_cast<NodeId>(ball.size()));
        const NodeId self_local = local_of(api.id());
        for (std::size_t ni = 0; ni < api.degree(); ++ni) {
          const NodeId u_local = local_of(api.neighbors()[ni]);
          builder.add_edge(self_local, u_local);
          InStream* in = api.find_in(ni, StreamKey{kNnAdjacency, 0, 0});
          while (in->available() > 0) {
            const auto x = static_cast<NodeId>(in->pop(idw_));
            const NodeId x_local = local_of(x);
            if (x_local != kNoNode && x_local != u_local) {
              builder.add_edge(u_local, x_local);
            }
          }
        }
        const Graph local = builder.build();
        std::vector<NodeId> allowed(local.n());
        for (NodeId v = 0; v < local.n(); ++v) allowed[v] = v;
        bool exhausted = false;
        auto clique_local = max_clique_containing(
            local, self_local, allowed, params_.clique_budget, &exhausted);
        expansions_ = last_clique_search_expansions();
        budget_exhausted_ = exhausted;
        clique_.clear();
        for (const NodeId v : clique_local) clique_.push_back(ball[v]);
        std::sort(clique_.begin(), clique_.end());
        auto ch = api.open_stream_all(StreamKey{kNnClique, 0, 0});
        for (const NodeId v : clique_) ch.put(v, idw_);
        ch.close();
        api.set_alarm(2);
        break;
      }
      case 2: {
        // Keep our clique only if every other member chose exactly it.
        bool consistent = true;
        for (std::size_t ni = 0; ni < api.degree(); ++ni) {
          const NodeId u = api.neighbors()[ni];
          if (!std::binary_search(clique_.begin(), clique_.end(), u)) continue;
          InStream* in = api.find_in(ni, StreamKey{kNnClique, 0, 0});
          std::vector<NodeId> theirs;
          while (in->available() > 0) {
            theirs.push_back(static_cast<NodeId>(in->pop(idw_)));
          }
          if (theirs != clique_) consistent = false;
        }
        if (consistent && clique_.size() >= 2) {
          out_ = static_cast<Label>(clique_.front());
        }
        api.set_done();
        break;
      }
      default:
        api.set_done();
        break;
    }
  }

  [[nodiscard]] Label output() const noexcept { return out_; }
  [[nodiscard]] std::uint64_t expansions() const noexcept {
    return expansions_;
  }
  [[nodiscard]] bool budget_exhausted() const noexcept {
    return budget_exhausted_;
  }

 private:
  Neighbors2Params params_;
  unsigned idw_ = 0;
  std::vector<NodeId> clique_;
  std::uint64_t expansions_ = 0;
  bool budget_exhausted_ = false;
  Label out_ = kBottom;
};

}  // namespace

std::map<Label, std::vector<NodeId>> Neighbors2Result::clusters() const {
  std::map<Label, std::vector<NodeId>> out;
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] != kBottom) out[labels[v]].push_back(v);
  }
  return out;
}

std::vector<NodeId> Neighbors2Result::largest_cluster() const {
  std::vector<NodeId> best;
  for (const auto& [label, members] : clusters()) {
    (void)label;
    if (members.size() > best.size()) best = members;
  }
  return best;
}

Neighbors2Result run_neighbors2(const Graph& g, const Neighbors2Params& params,
                                std::uint64_t seed) {
  NetConfig net;
  net.seed = seed;
  net.mode = NetConfig::Mode::kLocal;  // unbounded messages, per Section 3
  net.max_rounds = 16;
  Network network(g, net, [&](NodeId) {
    return std::make_unique<Neighbors2Node>(params);
  });
  Neighbors2Result result;
  result.stats = network.run();
  result.labels.assign(g.n(), kBottom);
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& node = static_cast<Neighbors2Node&>(network.node(v));
    result.labels[v] = node.output();
    result.total_expansions += node.expansions();
    result.any_budget_exhausted |= node.budget_exhausted();
  }
  return result;
}

}  // namespace nc
