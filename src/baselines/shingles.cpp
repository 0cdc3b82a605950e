#include "baselines/shingles.hpp"

#include <algorithm>
#include <memory>

#include "runtime/network.hpp"
#include "util/bitio.hpp"

namespace nc {

namespace {

enum ShMsg : std::uint16_t {
  kShRandomId = 1,  ///< (rho, id)
  kShLabel = 2,     ///< (rho, id) of my label
  kShDegree = 3,    ///< in-set degree report to the leader
  kShVerdict = 4,   ///< survive bit from the leader
};

struct ShingleId {
  std::uint64_t rho = ~0ULL;
  NodeId node = kNoNode;
  auto operator<=>(const ShingleId&) const = default;
};

class ShinglesNode : public INode {
 public:
  explicit ShinglesNode(const ShinglesParams& params) : params_(params) {}

  void on_start(NodeApi& api) override {
    idw_ = id_width(api.n());
    rho_width_ = std::min(60u, 3 * idw_);  // poly(n) ID space
    mine_.rho = api.rng().next_below(1ULL << rho_width_);
    mine_.node = api.id();
    auto ch = api.open_stream_all(StreamKey{kShRandomId, 0, 0});
    ch.put(mine_.rho, rho_width_);
    ch.put(mine_.node, idw_);
    ch.close();
    api.set_alarm(1);
  }

  void on_round(NodeApi& api) override {
    switch (api.round()) {
      case 1: {  // pick the smallest ID in the closed neighbourhood
        label_ = mine_;
        leader_ni_ = SIZE_MAX;  // self
        for (std::size_t ni = 0; ni < api.degree(); ++ni) {
          InStream* in = api.find_in(ni, StreamKey{kShRandomId, 0, 0});
          const std::uint64_t rho = in->pop(rho_width_);
          const auto node = static_cast<NodeId>(in->pop(idw_));
          nbr_ids_.push_back(ShingleId{rho, node});
          if (nbr_ids_.back() < label_) {
            label_ = nbr_ids_.back();
            leader_ni_ = ni;
          }
        }
        auto ch = api.open_stream_all(StreamKey{kShLabel, 0, 0});
        ch.put(label_.rho, rho_width_);
        ch.put(label_.node, idw_);
        ch.close();
        api.set_alarm(2);
        break;
      }
      case 2: {  // in-set degree; report to the leader
        // Note the dual role: a node is the *leader* of the candidate set
        // labelled by its own random ID whenever any neighbour adopted it —
        // even if the node itself adopted a different (smaller) label. The
        // namesake of a label is always adjacent to every set member, so
        // this works in one hop.
        for (std::size_t ni = 0; ni < api.degree(); ++ni) {
          InStream* in = api.find_in(ni, StreamKey{kShLabel, 0, 0});
          const std::uint64_t rho = in->pop(rho_width_);
          const auto node = static_cast<NodeId>(in->pop(idw_));
          const ShingleId lab{rho, node};
          if (lab == label_) {
            ++in_set_degree_;
            same_label_nbrs_.push_back(ni);
          }
          if (lab == mine_) member_nbrs_.push_back(ni);
        }
        if (label_ != mine_ && leader_ni_ != SIZE_MAX) {
          auto ch = api.open_stream_one(StreamKey{kShDegree, 0, 0},
                                        leader_ni_);
          ch.put(in_set_degree_, idw_);
          ch.close();
        }
        api.set_alarm(3);
        break;
      }
      case 3: {  // leader role: compute density, decide, broadcast verdict
        const bool self_member = label_ == mine_;
        if (self_member || !member_nbrs_.empty()) {
          std::uint64_t pairs = self_member ? in_set_degree_ : 0;
          for (const std::size_t ni : member_nbrs_) {
            InStream* in = api.find_in(ni, StreamKey{kShDegree, 0, 0});
            pairs += in->pop(idw_);
          }
          const std::uint64_t k = member_nbrs_.size() + (self_member ? 1 : 0);
          const auto full = k >= 2 ? static_cast<long double>(k) *
                                         static_cast<long double>(k - 1)
                                   : 0.0L;
          const bool dense =
              full - static_cast<long double>(pairs) <=
              static_cast<long double>(params_.eps) * full + 1e-9L;
          survive_ = k >= params_.min_size && dense;
          if (!member_nbrs_.empty()) {
            std::vector<std::size_t> targets = member_nbrs_;
            auto ch = api.open_stream(StreamKey{kShVerdict, 0, 0}, targets);
            ch.put_bit(survive_);
            ch.close();
          }
          if (self_member) {
            out_ = survive_ ? static_cast<Label>(mine_.node) : kBottom;
          }
        }
        if (label_ == mine_) {
          api.set_done();  // own verdict decided locally
        } else {
          api.set_alarm(4);  // await our set's verdict as a member
        }
        break;
      }
      default: {  // members: collect the verdict from the namesake
        if (leader_ni_ != SIZE_MAX) {
          InStream* in = api.find_in(leader_ni_, StreamKey{kShVerdict, 0, 0});
          if (in != nullptr && in->available() > 0) {
            out_ = in->pop(1) != 0 ? static_cast<Label>(label_.node) : kBottom;
            api.set_done();
            return;
          }
        } else {
          api.set_done();
          return;
        }
        api.set_alarm(api.round() + 1);
        break;
      }
    }
  }

  [[nodiscard]] Label output() const noexcept { return out_; }

 private:
  ShinglesParams params_;
  unsigned idw_ = 0;
  unsigned rho_width_ = 0;
  ShingleId mine_;
  ShingleId label_;
  std::size_t leader_ni_ = SIZE_MAX;
  std::vector<ShingleId> nbr_ids_;
  std::vector<std::size_t> same_label_nbrs_;
  std::vector<std::size_t> member_nbrs_;  ///< leader: members adjacent to me
  std::uint64_t in_set_degree_ = 0;
  bool survive_ = false;
  Label out_ = kBottom;
};

}  // namespace

std::map<Label, std::vector<NodeId>> ShinglesResult::clusters() const {
  std::map<Label, std::vector<NodeId>> out;
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] != kBottom) out[labels[v]].push_back(v);
  }
  return out;
}

std::vector<NodeId> ShinglesResult::largest_cluster() const {
  std::vector<NodeId> best;
  for (const auto& [label, members] : clusters()) {
    (void)label;
    if (members.size() > best.size()) best = members;
  }
  return best;
}

ShinglesResult run_shingles(const Graph& g, const ShinglesParams& params,
                            std::uint64_t seed) {
  NetConfig net;
  net.seed = seed;
  net.max_rounds = 64;  // the algorithm needs five
  // (rho, id) must fit one message for the fixed round structure:
  // header + 4*idw bits <= B. Still O(log n) per message.
  net.bandwidth_factor = 12;
  Network network(g, net, [&](NodeId) {
    return std::make_unique<ShinglesNode>(params);
  });
  ShinglesResult result;
  result.stats = network.run();
  result.labels.assign(g.n(), kBottom);
  for (NodeId v = 0; v < g.n(); ++v) {
    result.labels[v] =
        static_cast<ShinglesNode&>(network.node(v)).output();
  }
  return result;
}

}  // namespace nc
