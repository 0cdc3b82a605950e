#include "algo/result.hpp"

#include <sstream>

namespace nc {

const char* cost_model_name(CostModel model) {
  switch (model) {
    case CostModel::kCongest:
      return "CONGEST";
    case CostModel::kLocal:
      return "LOCAL";
    case CostModel::kCentral:
      return "central";
  }
  return "?";
}

std::map<Label, std::vector<NodeId>> AlgoResult::clusters() const {
  std::map<Label, std::vector<NodeId>> out;
  for (NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] != kBottom) out[labels[v]].push_back(v);
  }
  return out;
}

std::vector<NodeId> AlgoResult::largest_cluster() const {
  std::vector<NodeId> best;
  for (const auto& [label, members] : clusters()) {
    (void)label;
    if (members.size() > best.size()) best = members;
  }
  return best;
}

std::uint64_t AlgoResult::label_hash() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Label l : labels) {
    auto x = static_cast<std::uint64_t>(l);
    for (int i = 0; i < 8; ++i) {
      h ^= x & 0xffu;
      h *= 1099511628211ULL;
      x >>= 8;
    }
  }
  return h;
}

std::uint64_t AlgoResult::headline_cost() const {
  return model == CostModel::kCongest ? stats.rounds : local_ops;
}

std::string AlgoResult::cost_summary() const {
  std::ostringstream os;
  switch (model) {
    case CostModel::kCongest:
      os << stats.summary() << ", local_ops=" << local_ops;
      break;
    case CostModel::kLocal:
      os << "rounds=" << stats.rounds
         << ", max_message_bits=" << stats.max_message_bits
         << ", local_ops=" << local_ops;
      break;
    case CostModel::kCentral:
      os << "local_ops=" << local_ops << " (centralized; no message costs)";
      break;
  }
  if (aborted) os << " [aborted]";
  return os.str();
}

}  // namespace nc
