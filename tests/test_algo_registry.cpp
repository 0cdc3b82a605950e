// Coverage for the AlgorithmRegistry: every registered algorithm runs
// deterministically behind the unified AlgoResult interface, adapters
// reproduce the hand-built driver configurations bit-for-bit, and unknown
// names / parameters fail with self-explaining errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "algo/plans.hpp"
#include "algo/registry.hpp"
#include "core/boosting.hpp"
#include "core/driver.hpp"
#include "expt/scenario.hpp"

namespace nc {
namespace {

Instance small_instance() {
  return make_scenario("theorem",
                       ScenarioParams().with("n", 60).with("delta", 0.5),
                       /*seed=*/7);
}

TEST(AlgorithmRegistry, CataloguesTheSixBuiltins) {
  const auto names = AlgorithmRegistry::global().names();
  ASSERT_GE(names.size(), 6u);
  for (const auto* expected :
       {"dist_near_clique", "shingles", "neighbors2", "peeling", "grasp",
        "ggr_find"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  const auto text = describe_algorithms(AlgorithmRegistry::global());
  for (const auto& name : names) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // The catalogue states each algorithm's cost model.
  EXPECT_NE(text.find("[CONGEST]"), std::string::npos);
  EXPECT_NE(text.find("[LOCAL]"), std::string::npos);
  EXPECT_NE(text.find("[central]"), std::string::npos);
}

TEST(AlgorithmRegistry, EveryAlgorithmIsDeterministicInSeed) {
  const auto inst = small_instance();
  for (const auto& name : AlgorithmRegistry::global().names()) {
    // Keep the protocol quick on the tiny instance.
    AlgoParams params;
    if (name == "dist_near_clique") params.with("max_rounds", 2'000'000);
    const AlgoResult a = run_algorithm(inst.graph, name, params, 5);
    const AlgoResult b = run_algorithm(inst.graph, name, params, 5);
    EXPECT_EQ(a.labels, b.labels) << name;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << name;
    EXPECT_EQ(a.stats.bits, b.stats.bits) << name;
    EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits) << name;
    EXPECT_EQ(a.local_ops, b.local_ops) << name;
    EXPECT_EQ(a.aborted, b.aborted) << name;
    EXPECT_EQ(a.model, AlgorithmRegistry::global().algorithm(name).model)
        << name;
  }
}

TEST(AlgorithmRegistry, DistAdapterMatchesHandBuiltDriverConfig) {
  const auto inst = small_instance();
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 9.0 / static_cast<double>(inst.graph.n());
  cfg.net.seed = 11;
  cfg.net.max_rounds = 32'000'000;
  const auto direct = run_dist_near_clique(inst.graph, cfg);
  const auto via_registry = run_algorithm(
      inst.graph, "dist_near_clique",
      AlgoParams().with("eps", 0.2).with("pn", 9.0), /*seed=*/11);
  EXPECT_EQ(direct.labels, via_registry.labels);
  EXPECT_EQ(direct.stats.rounds, via_registry.stats.rounds);
  EXPECT_EQ(direct.stats.bits, via_registry.stats.bits);
  EXPECT_EQ(direct.total_local_ops, via_registry.local_ops);
}

TEST(AlgorithmRegistry, BoostingIsTheVersionsParameter) {
  const auto inst = small_instance();
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 6.0 / static_cast<double>(inst.graph.n());
  cfg.net.seed = 3;
  cfg.net.max_rounds = 8'000'000;
  const auto direct = run_boosted(inst.graph, cfg, 3, 400'000);
  const auto via_registry = run_algorithm(inst.graph, "dist_near_clique",
                                          AlgoParams()
                                              .with("eps", 0.2)
                                              .with("pn", 6.0)
                                              .with("versions", 3)
                                              .with("window", 400'000)
                                              .with("max_rounds", 8'000'000),
                                          /*seed=*/3);
  EXPECT_EQ(direct.labels, via_registry.labels);
  EXPECT_EQ(direct.stats.rounds, via_registry.stats.rounds);
}

TEST(AlgorithmRegistry, CentralBaselinesReportTheirCostSubset) {
  const auto inst = small_instance();
  for (const auto* name : {"peeling", "grasp", "ggr_find"}) {
    const auto res = run_algorithm(inst.graph, name, {}, 1);
    EXPECT_EQ(res.model, CostModel::kCentral) << name;
    EXPECT_EQ(res.stats.rounds, 0u) << name;
    EXPECT_EQ(res.stats.bits, 0u) << name;
    EXPECT_EQ(res.stats.max_message_bits, 0u) << name;
    EXPECT_GT(res.local_ops, 0u) << name;
    EXPECT_EQ(res.headline_cost(), res.local_ops) << name;
  }
  const auto dist = run_algorithm(inst.graph, "dist_near_clique",
                                  AlgoParams().with("max_rounds", 2'000'000),
                                  1);
  EXPECT_EQ(dist.model, CostModel::kCongest);
  EXPECT_EQ(dist.headline_cost(), dist.stats.rounds);
}

TEST(AlgorithmRegistry, CentralLabelsGroupTheFoundSet) {
  const auto inst = small_instance();
  const auto res = run_algorithm(inst.graph, "peeling", {}, 1);
  const auto clusters = res.clusters();
  ASSERT_EQ(clusters.size(), 1u);
  const auto& [label, members] = *clusters.begin();
  EXPECT_EQ(label, members.front());  // smallest member id labels the set
  EXPECT_EQ(members, res.largest_cluster());
}

TEST(AlgoResult, LabelHashIsFnv1aOverLittleEndianLabelBytes) {
  // Pinned values: 64-bit FNV-1a (offset basis 1469598103934665603, prime
  // 1099511628211) over each label's 8 bytes, least significant first — the
  // definition e2ebench/e2e_run.cpp uses, so both report the same hash.
  AlgoResult res;
  EXPECT_EQ(res.label_hash(), 1469598103934665603ULL);  // no labels: basis
  res.labels = {3, 0, 0x0123456789abcdefULL, kBottom};
  EXPECT_EQ(res.label_hash(), 0x86a6ca6d6d55d198ULL);
  // Order matters: the hash identifies the labelling, not the label set.
  std::swap(res.labels[0], res.labels[1]);
  EXPECT_NE(res.label_hash(), 0x86a6ca6d6d55d198ULL);
}

TEST(AlgorithmRegistry, UnknownAlgorithmFailsWithCatalogue) {
  const auto inst = small_instance();
  try {
    (void)run_algorithm(inst.graph, "no_such_algorithm", {}, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown algorithm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dist_near_clique"), std::string::npos)
        << "message should list the known algorithms: " << msg;
  }
}

TEST(AlgorithmRegistry, UnknownParameterFailsNamingTheKey) {
  const auto inst = small_instance();
  try {
    (void)run_algorithm(inst.graph, "shingles",
                        AlgoParams().with("sample_size", 4), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sample_size"), std::string::npos) << msg;
    EXPECT_NE(msg.find("has no parameter"), std::string::npos) << msg;
  }
}

TEST(AlgorithmRegistry, ParameterTypeMismatchesAreRejected) {
  const auto inst = small_instance();
  // Numeric value for a declared string parameter.
  EXPECT_THROW((void)run_algorithm(inst.graph, "peeling",
                                   AlgoParams().with("objective", 5), 1),
               std::invalid_argument);
  // String value for a declared numeric parameter.
  EXPECT_THROW((void)run_algorithm(inst.graph, "peeling",
                                   AlgoParams().with("eps", "dense"), 1),
               std::invalid_argument);
  // Out-of-range versions must be rejected, not truncated.
  EXPECT_THROW((void)run_algorithm(inst.graph, "dist_near_clique",
                                   AlgoParams().with("versions", 0), 1),
               std::invalid_argument);
  // Unknown peeling objective names the legal values.
  try {
    (void)run_algorithm(inst.graph, "peeling",
                        AlgoParams().with("objective", "biggest"), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("near_clique"), std::string::npos)
        << e.what();
  }
}

TEST(AlgorithmRegistry, PeelingObjectivesDiffer) {
  const auto inst = small_instance();
  const auto near = run_algorithm(inst.graph, "peeling",
                                  AlgoParams().with("objective", "near_clique"),
                                  1);
  const auto densest = run_algorithm(
      inst.graph, "peeling", AlgoParams().with("objective", "densest"), 1);
  EXPECT_FALSE(near.largest_cluster().empty());
  EXPECT_FALSE(densest.largest_cluster().empty());
}

TEST(AlgorithmRegistry, MidRunThrowSurfacesAsAnOrdinaryException) {
  // versions >= 16 passes the adapter's [1, 1023] range check but exceeds
  // the wire format's 4-bit version field, so the protocol throws from
  // open_stream *mid-run* (version 16's window start), not during
  // validation. The regression `nearclique run` relies on: the throw must
  // surface as a std::invalid_argument from AlgorithmRegistry::run — at
  // any thread count — which the CLI maps to a nonzero exit status,
  // instead of aborting the process.
  const auto inst = small_instance();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_THROW((void)run_algorithm(inst.graph, "dist_near_clique",
                                     AlgoParams()
                                         .with("versions", 16)
                                         .with("window", 40)
                                         .with("threads", threads),
                                     3),
                 std::invalid_argument);
  }
  // The registry stays usable after the failure.
  EXPECT_NO_THROW((void)run_algorithm(
      inst.graph, "dist_near_clique",
      AlgoParams().with("max_rounds", 100'000), 3));
}

TEST(AlgorithmRegistry, FaultParamsReachTheNetwork) {
  // The dist_near_clique adapter builds a FaultPlan from the declared
  // fault keys: a lossy run must report lost traffic in its RunStats and
  // stay a pure function of (graph, params, seed).
  const auto inst = small_instance();
  const AlgoParams params = AlgoParams()
                                .with("loss", 0.05)
                                .with("delay_max", 1)
                                .with("max_rounds", 50'000);
  const auto a = run_algorithm(inst.graph, "dist_near_clique", params, 7);
  const auto b = run_algorithm(inst.graph, "dist_near_clique", params, 7);
  EXPECT_GT(a.stats.messages_lost, 0u);
  EXPECT_GT(a.stats.messages_delayed, 0u);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.messages_lost, b.stats.messages_lost);
  EXPECT_EQ(a.labels, b.labels);
  // Out-of-range fault params are rejected by the plan validator.
  EXPECT_THROW((void)run_algorithm(inst.graph, "dist_near_clique",
                                   AlgoParams().with("loss", 1.5), 1),
               std::invalid_argument);
}

TEST(AlgorithmRegistry, DistNearCliqueDeclaresEveryPlanKey) {
  // The plan table and the registry must not drift apart: every key of
  // every plan row's defaults is a declared dist_near_clique parameter
  // with the plan's default value, and each row's declare key is one of
  // its own keys.
  const auto& declared =
      AlgorithmRegistry::global().algorithm("dist_near_clique").defaults;
  ASSERT_EQ(plan_table().size(), 3u);
  for (const PlanRow& plan : plan_table()) {
    SCOPED_TRACE(plan.name);
    EXPECT_TRUE(plan.defaults().has_number(plan.declare_key));
    EXPECT_TRUE(algorithm_declares("dist_near_clique", plan.declare_key));
    for (const auto& [key, value] : plan.defaults().values()) {
      ASSERT_TRUE(declared.has_number(key)) << key;
      EXPECT_EQ(declared.get_double(key), value) << key;
    }
    EXPECT_EQ(find_plan(plan.name), &plan);
  }
  EXPECT_EQ(find_plan("params"), nullptr);
}

TEST(AlgorithmRegistry, RetiredReliabilityModeIsRejectedInAlgoParams) {
  // rel_mode=2 and its window/repair keys are gone: the mode fails in the
  // plan validator, the keys in the parameter catalogue.
  const auto inst = small_instance();
  const auto error_of = [&](const std::string& csv) {
    try {
      (void)AlgorithmRegistry::global().run(
          inst.graph, parse_algo_spec("dist_near_clique", csv, 1));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(error_of("rel_mode=2").find("rel_mode must be 0 (off) or 1 (ack)"),
            std::string::npos);
  for (const char* csv : {"rel_fec_window=4", "rel_fec_repair=2"}) {
    const std::string what = error_of(csv);
    EXPECT_NE(what.find("has no parameter 'rel_fec_"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rel_ack_timeout"), std::string::npos) << what;
  }
}

TEST(AlgorithmRegistry, MaxRoundsBelowTheDecisionBudgetIsRejected) {
  // n = 60: the auto schedule needs max_rounds > 4n + 256 + 16 = 512.
  const auto inst = small_instance();
  ASSERT_EQ(inst.graph.n(), 60u);
  try {
    (void)AlgorithmRegistry::global().run(
        inst.graph, parse_algo_spec("dist_near_clique", "max_rounds=512", 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("needs max_rounds >= 513"),
              std::string::npos)
        << e.what();
  }
}

TEST(AlgorithmRegistry, ParseAlgoSpecRoundTrip) {
  const auto spec = parse_algo_spec("dist_near_clique", "eps=0.15,pn=6", 9);
  EXPECT_EQ(spec.name, "dist_near_clique");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.params.get_double("eps"), 0.15);
  EXPECT_DOUBLE_EQ(spec.params.get_double("pn"), 6.0);

  // Declared string parameters parse verbatim.
  const auto peel = parse_algo_spec("peeling", "objective=densest", 1);
  EXPECT_EQ(peel.params.get_string("objective"), "densest");

  EXPECT_THROW(parse_algo_spec("shingles", "eps", 1), std::invalid_argument);
  EXPECT_THROW(parse_algo_spec("shingles", "eps=abc", 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace nc
