#include "algo/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "algo/plans.hpp"
#include "baselines/ggr_find.hpp"
#include "baselines/grasp.hpp"
#include "baselines/neighbors2.hpp"
#include "baselines/peeling.hpp"
#include "baselines/shingles.hpp"
#include "core/boosting.hpp"
#include "runtime/faults.hpp"
#include "runtime/reliability.hpp"
#include "runtime/shard.hpp"
#include "runtime/telemetry.hpp"
#include "util/rng.hpp"

namespace nc {

namespace {

/// Per-node labels for a centralized baseline's found set: every member
/// carries the set's smallest node id as its label (found is sorted).
std::vector<Label> labels_for_set(NodeId n, const std::vector<NodeId>& found) {
  std::vector<Label> labels(n, kBottom);
  if (found.empty()) return labels;
  const Label label = found.front();
  for (const NodeId v : found) labels[v] = label;
  return labels;
}

AlgorithmRegistry build_global_registry() {
  AlgorithmRegistry r;

  // The adapters reproduce the exact configurations the benches and
  // examples historically built by hand (p = pn / n, seed into the network
  // RNG, run_boosted for the versions wrapper), so pre-registry fixed-seed
  // results are preserved bit-for-bit.
  // The network-backed protocol also declares every plan's complete key
  // set (faults, reliability, telemetry — src/algo/plans.hpp), so
  // adversity, its countermeasures and run telemetry ride the ordinary
  // param-bag / sweep-axis machinery: `--algo-params=loss=0.05,rel_mode=1`
  // and `--grid=algo.loss=0:0.05:0.1` just work. The adapter owns the
  // telemetry capture sink; the result carries it out as
  // AlgoResult::telemetry.
  AlgoParams dnc_defaults = AlgoParams()
                                .with("eps", 0.2)
                                .with("pn", 9.0)
                                .with("versions", 1)
                                .with("window", 0)
                                .with("max_rounds", 32'000'000)
                                .with("threads", 1)
                                .with("profile", 0);
  for (const PlanRow& plan : plan_table()) {
    for (const auto& [key, value] : plan.defaults().values()) {
      dnc_defaults.with(key, value);
    }
  }
  r.add({"dist_near_clique",
         "Algorithm DistNearClique (Section 4) with the Section 4.1 "
         "time-bound and boosting wrappers (versions > 1); fault-plan "
         "params inject message loss / delay / churn, rel_* params enable "
         "the ARQ (ACK + retransmission) reliability service, tel_* params "
         "capture run telemetry (per-round metrics, phase traces, protocol "
         "probes)",
         CostModel::kCongest, std::move(dnc_defaults),
         [](const Graph& g, const AlgoParams& p, std::uint64_t seed) {
           DriverConfig cfg;
           cfg.proto.eps = p.get_double("eps");
           cfg.proto.p = p.get_double("pn") / static_cast<double>(g.n());
           cfg.net.seed = seed;
           cfg.net.max_rounds =
               static_cast<std::uint64_t>(p.get_double("max_rounds"));
           cfg.net.faults = fault_plan_from_params(p);
           cfg.net.reliability = reliability_plan_from_params(p);
           // Delivery sharding: a pure performance knob — fixed-seed runs
           // are bit-identical at every thread count.
           const auto threads = p.get_int("threads");
           if (threads < 1 || threads > static_cast<std::int64_t>(kMaxShards)) {
             throw std::invalid_argument(
                 "algorithm parameter 'threads' must be in [1, " +
                 std::to_string(kMaxShards) + "]");
           }
           cfg.net.threads = static_cast<unsigned>(threads);
           const auto lambda = p.get_int("versions");
           if (lambda < 1 || lambda > 1023) {
             throw std::invalid_argument(
                 "algorithm parameter 'versions' must be in [1, 1023]");
           }
           // Opt-in engine profiling ('profile=1', or `run --profile`):
           // the network fills the local sink during the run and the
           // result carries it out, so per-phase seconds reach the CLI
           // without anyone writing a bench.
           NetProfile prof;
           if (p.get_int("profile") != 0) cfg.net.profile = &prof;
           // Opt-in telemetry: the sink outlives the network (shared_ptr
           // on the result), so callers read samples after the run ends.
           TelemetryPlan tplan = telemetry_plan_from_params(p);
           std::shared_ptr<Telemetry> tsink;
           if (tplan.requested()) {
             tsink = std::make_shared<Telemetry>();
             tplan.sink = tsink.get();
             cfg.net.telemetry = tplan;
           }
           AlgoResult out = to_algo_result(run_boosted(
               g, cfg, static_cast<std::uint16_t>(lambda),
               static_cast<std::uint64_t>(p.get_double("window"))));
           out.profile = prof;
           out.telemetry = std::move(tsink);
           return out;
         }});

  r.add({"shingles",
         "Section 3 shingles algorithm (CONGEST, O(1) rounds; Claim 1 "
         "counterexample applies)",
         CostModel::kCongest,
         AlgoParams().with("eps", 0.1).with("min_size", 2),
         [](const Graph& g, const AlgoParams& p, std::uint64_t seed) {
           ShinglesParams sp;
           sp.eps = p.get_double("eps");
           sp.min_size = static_cast<std::uint32_t>(p.get_int("min_size"));
           auto res = run_shingles(g, sp, seed);
           AlgoResult out;
           out.labels = std::move(res.labels);
           out.stats = res.stats;
           return out;
         }});

  r.add({"neighbors2",
         "Section 3 neighbours'-neighbours algorithm (LOCAL: Delta*log n "
         "bit messages, NP-hard local clique search)",
         CostModel::kLocal,
         AlgoParams().with("clique_budget", 2'000'000),
         [](const Graph& g, const AlgoParams& p, std::uint64_t seed) {
           Neighbors2Params np;
           np.clique_budget =
               static_cast<std::size_t>(p.get_double("clique_budget"));
           auto res = run_neighbors2(g, np, seed);
           AlgoResult out;
           out.labels = std::move(res.labels);
           out.stats = res.stats;
           out.local_ops = res.total_expansions;
           out.aborted = res.any_budget_exhausted;
           return out;
         }});

  r.add({"peeling",
         "centralized greedy min-degree peeling (objective=near_clique "
         "keeps the largest eps-near-clique suffix; objective=densest "
         "keeps the max-average-degree suffix)",
         CostModel::kCentral,
         AlgoParams().with("eps", 0.2).with("objective", "near_clique"),
         [](const Graph& g, const AlgoParams& p, std::uint64_t /*seed*/) {
           const std::string& objective = p.get_string("objective");
           std::vector<NodeId> found;
           if (objective == "near_clique") {
             found = largest_near_clique_by_peeling(g, p.get_double("eps"));
           } else if (objective == "densest") {
             found = densest_subgraph_by_peeling(g);
           } else {
             throw std::invalid_argument(
                 "algorithm 'peeling' parameter 'objective' must be "
                 "'near_clique' or 'densest', got '" +
                 objective + "'");
           }
           AlgoResult out;
           out.labels = labels_for_set(g.n(), found);
           out.local_ops = g.m();  // one peel = O(m) edge work
           return out;
         }});

  r.add({"grasp",
         "GRASP quasi-clique heuristic of Abello et al. [1] (centralized "
         "multistart greedy + local search)",
         CostModel::kCentral,
         AlgoParams()
             .with("gamma", 0.9)
             .with("iterations", 16)
             .with("rcl_alpha", 0.3)
             .with("local_search_passes", 4),
         [](const Graph& g, const AlgoParams& p, std::uint64_t seed) {
           GraspParams gp;
           gp.gamma = p.get_double("gamma");
           gp.iterations = static_cast<unsigned>(p.get_int("iterations"));
           gp.rcl_alpha = p.get_double("rcl_alpha");
           gp.local_search_passes =
               static_cast<unsigned>(p.get_int("local_search_passes"));
           Rng rng(seed);
           const auto found = grasp_quasi_clique(g, gp, rng);
           AlgoResult out;
           out.labels = labels_for_set(g.n(), found);
           out.local_ops =
               static_cast<std::uint64_t>(gp.iterations) * g.m();
           return out;
         }});

  r.add({"ggr_find",
         "Goldreich-Goldwasser-Ron approximate find [10] (the centralized "
         "construction DistNearClique distributes)",
         CostModel::kCentral,
         AlgoParams().with("eps", 0.2).with("sample_size", 9),
         [](const Graph& g, const AlgoParams& p, std::uint64_t seed) {
           Rng rng(seed);
           const auto res = ggr_approximate_find(
               g, p.get_double("eps"),
               static_cast<std::uint32_t>(p.get_int("sample_size")), rng);
           AlgoResult out;
           out.labels = labels_for_set(g.n(), res.found);
           out.local_ops = res.pair_queries;
           return out;
         }});

  return r;
}

}  // namespace

void AlgorithmRegistry::add(Algorithm algorithm) {
  const auto name = algorithm.name;
  if (!algorithms_.emplace(name, std::move(algorithm)).second) {
    throw std::invalid_argument("algorithm '" + name + "' registered twice");
  }
}

const AlgorithmRegistry::Algorithm& AlgorithmRegistry::algorithm(
    const std::string& name) const {
  const auto it = algorithms_.find(name);
  if (it == algorithms_.end()) {
    throw std::invalid_argument("unknown algorithm '" + name +
                                "'; known algorithms: " +
                                join_comma(names()));
  }
  return it->second;
}

AlgoResult AlgorithmRegistry::run(const Graph& g, const AlgoSpec& spec) const {
  const Algorithm& algo = algorithm(spec.name);
  const AlgoParams merged = merge_params(algo.defaults, spec.params,
                                         "algorithm '" + spec.name + "'");
  AlgoResult result = algo.run(g, merged, spec.seed);
  result.model = algo.model;
  return result;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(algorithms_.size());
  for (const auto& [name, algo] : algorithms_) out.push_back(name);
  return out;
}

const AlgorithmRegistry& AlgorithmRegistry::global() {
  static const AlgorithmRegistry registry = build_global_registry();
  return registry;
}

AlgoResult run_algorithm(const Graph& g, const std::string& name,
                         const AlgoParams& params, std::uint64_t seed) {
  return AlgorithmRegistry::global().run(g, {name, params, seed});
}

bool algorithm_declares(const std::string& name, const std::string& key) {
  try {
    return AlgorithmRegistry::global().algorithm(name).defaults.has_number(
        key);
  } catch (const std::invalid_argument&) {
    return false;  // unknown algorithm: callers report the catalogue later
  }
}

AlgoSpec parse_algo_spec(const std::string& name,
                         const std::string& params_csv, std::uint64_t seed) {
  AlgoSpec spec;
  spec.name = name;
  spec.seed = seed;
  const ParamSet* declared = nullptr;
  try {
    declared = &AlgorithmRegistry::global().algorithm(name).defaults;
  } catch (const std::invalid_argument&) {
    // Unknown algorithm: parse numerically; run() reports the catalogue.
  }
  spec.params = parse_params_csv(params_csv, declared);
  return spec;
}

std::string describe_algorithms(const AlgorithmRegistry& registry) {
  std::ostringstream os;
  for (const auto& name : registry.names()) {
    const auto& algo = registry.algorithm(name);
    os << "  " << name << " [" << cost_model_name(algo.model) << "] — "
       << algo.description << "\n    defaults:"
       << describe_params(algo.defaults) << "\n";
  }
  return os.str();
}

AlgoResult to_algo_result(const NearCliqueResult& result) {
  AlgoResult out;
  out.model = CostModel::kCongest;
  out.labels = result.labels;
  out.stats = result.stats;
  out.local_ops = result.total_local_ops;
  out.aborted = result.aborted();
  out.stall = result.stall;
  return out;
}

}  // namespace nc
