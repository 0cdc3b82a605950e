#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/boosting.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/subsets.hpp"

namespace nc {
namespace {

// -------------------------------------------------------------- Subsets ---

TEST(Subsets, SubsetCount) {
  EXPECT_EQ(subset_count(0), 0u);
  EXPECT_EQ(subset_count(1), 1u);
  EXPECT_EQ(subset_count(3), 7u);
  EXPECT_EQ(subset_count(10), 1023u);
  EXPECT_EQ(subset_count(63), (1ULL << 63) - 1);
}

TEST(Subsets, MemberPosition) {
  const std::vector<NodeId> members{3, 7, 10, 42};
  EXPECT_EQ(member_position(members, 3), 0u);
  EXPECT_EQ(member_position(members, 42), 3u);
  EXPECT_EQ(member_position(members, 5), SIZE_MAX);
  EXPECT_EQ(member_position({}, 5), SIZE_MAX);
}

TEST(Subsets, AdjacencyMask) {
  const std::vector<NodeId> members{3, 7, 10, 42};
  EXPECT_EQ(adjacency_mask(members, {7, 42}), 0b1010ULL);
  EXPECT_EQ(adjacency_mask(members, {1, 2, 3, 4}), 0b0001ULL);
  EXPECT_EQ(adjacency_mask(members, {}), 0ULL);
  EXPECT_EQ(adjacency_mask(members, {3, 7, 10, 42}), 0b1111ULL);
  EXPECT_EQ(adjacency_mask({}, {1, 2}), 0ULL);
}

TEST(Subsets, SubsetMembers) {
  const std::vector<NodeId> members{3, 7, 10};
  EXPECT_EQ(subset_members(members, 0b101), (std::vector<NodeId>{3, 10}));
  EXPECT_EQ(subset_members(members, 0), std::vector<NodeId>{});
  EXPECT_EQ(subset_members(members, 0b111), members);
}

// --------------------------------------------------------------- Labels ---

TEST(Labels, EncodeDecodeRoundTrip) {
  for (const NodeId root : {0u, 1u, 12345u, 4000000u}) {
    for (const std::uint16_t w : {std::uint16_t{1}, std::uint16_t{16},
                                  std::uint16_t{1023}}) {
      const Label lab = make_label(root, w);
      EXPECT_EQ(label_root(lab), root);
      EXPECT_EQ(label_version(lab), w);
      EXPECT_NE(lab, kBottom);
    }
  }
}

TEST(Labels, DistinctVersionsDistinctLabels) {
  EXPECT_NE(make_label(5, 1), make_label(5, 2));
  EXPECT_NE(make_label(5, 1), make_label(6, 1));
}

// --------------------------------------------------------------- Params ---

TEST(Params, RecommendedPScalesInverselyWithN) {
  // Use n large enough that the clamp at 1.0 is inactive (the constants in
  // the theorem make p*n a large constant).
  const double p1 = recommended_p(0.2, 0.5, 10'000'000);
  const double p2 = recommended_p(0.2, 0.5, 20'000'000);
  EXPECT_NEAR(p1 / p2, 2.0, 1e-9);
  EXPECT_GT(p1, 0.0);
  EXPECT_LE(p1, 1.0);
}

TEST(Params, RecommendedPGrowsAsEpsShrinks) {
  const NodeId n = 100'000'000;
  EXPECT_GT(recommended_p(0.1, 0.5, n), recommended_p(0.2, 0.5, n));
  EXPECT_GT(recommended_p(0.2, 0.25, n), recommended_p(0.2, 0.5, n));
}

TEST(Params, InnerEps) {
  ProtocolParams p;
  p.eps = 0.3;
  EXPECT_DOUBLE_EQ(p.inner_eps(), 0.18);
}

TEST(Schedule, WindowArithmetic) {
  ProtocolParams proto;
  proto.versions = 3;
  proto.version_budget = 100;
  proto.decision_budget = 50;
  const Schedule s = make_schedule(proto, 10, 1'000'000);
  EXPECT_EQ(s.version_start(1), 1u);
  EXPECT_EQ(s.version_end(1), 101u);
  EXPECT_EQ(s.version_start(2), 101u);
  EXPECT_EQ(s.version_end(3), 301u);
  EXPECT_EQ(s.decision_deadline(), 351u);
}

TEST(Schedule, AutoBudgetsArePositiveAndFit) {
  ProtocolParams proto;
  proto.versions = 4;
  const Schedule s = make_schedule(proto, 100, 100'000);
  EXPECT_GT(s.version_budget, 0u);
  EXPECT_EQ(s.decision_budget, 4u * 100 + 256);
  EXPECT_LE(s.decision_deadline(), 100'000u);
}

TEST(Schedule, TinyRoundLimitStillValid) {
  // Explicit budgets are taken as given however small the round limit: a
  // run that outgrows it aborts, which is the time-bound wrapper's choice.
  ProtocolParams proto;
  proto.version_budget = 3;
  const Schedule s = make_schedule(proto, 10, 8);
  EXPECT_EQ(s.version_budget, 3u);
  EXPECT_EQ(s.decision_budget, 4u * 10 + 256);
}

TEST(Schedule, AutoBudgetRejectsARoundLimitThatLeavesNoVersionWindow) {
  // The auto version budget needs max_rounds > decision budget + 16. At
  // n = 10 that is 296 + 16: 312 is rejected naming the minimum, 313
  // leaves one round per version.
  ProtocolParams proto;
  for (const std::uint64_t max_rounds : {8u, 312u}) {
    try {
      (void)make_schedule(proto, 10, max_rounds);
      ADD_FAILURE() << "expected std::invalid_argument at " << max_rounds;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("needs max_rounds >= 313"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(make_schedule(proto, 10, 313).version_budget, 1u);
  // An explicit decision budget moves the minimum with it.
  proto.decision_budget = 50;
  EXPECT_THROW((void)make_schedule(proto, 10, 66), std::invalid_argument);
  EXPECT_EQ(make_schedule(proto, 10, 67).version_budget, 1u);
}

// ------------------------------------------------------------- Boosting ---

TEST(Boosting, LambdaFormula) {
  // (1-r)^lambda <= q.
  for (const double r : {0.3, 0.5, 0.9}) {
    for (const double q : {0.1, 0.01, 0.001}) {
      const auto lambda = boosting_versions(q, r);
      EXPECT_LE(std::pow(1.0 - r, lambda), q + 1e-12);
      if (lambda > 1) {
        EXPECT_GT(std::pow(1.0 - r, lambda - 1), q - 1e-12);
      }
    }
  }
}

TEST(Boosting, LambdaClamped) {
  EXPECT_EQ(boosting_versions(1.0, 0.5), 1u);
  EXPECT_LE(boosting_versions(1e-300, 1e-9), 1023u);
  EXPECT_GE(boosting_versions(0.5, 0.999), 1u);
}

}  // namespace
}  // namespace nc
