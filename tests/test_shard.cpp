// Shard partitioning and sharded-engine edge cases: partition shape (n < k,
// empty shards, one shard, degree balance), the ShardPool contract (all
// jobs run, exceptions propagate), and network behaviours that cross shard
// boundaries — alarms armed from one shard while traffic flows in another,
// and chatter across a shard cut.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/network.hpp"
#include "runtime/shard.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nc {
namespace {

constexpr std::uint16_t kPing = 3;

// ---------------------------------------------------------------------------
// plan_shards
// ---------------------------------------------------------------------------

void expect_valid_plan(const ShardPlan& plan, NodeId n, unsigned k) {
  ASSERT_EQ(plan.shards(), k);
  ASSERT_EQ(plan.bounds.size(), static_cast<std::size_t>(k) + 1);
  EXPECT_EQ(plan.bounds.front(), 0u);
  EXPECT_EQ(plan.bounds.back(), n);
  for (unsigned s = 0; s < k; ++s) {
    EXPECT_LE(plan.bounds[s], plan.bounds[s + 1]);  // contiguous, ordered
  }
  ASSERT_EQ(plan.node_shard.size(), n);
  for (NodeId v = 0; v < n; ++v) {
    const unsigned s = plan.node_shard[v];
    ASSERT_LT(s, k);
    EXPECT_GE(v, plan.begin(s));
    EXPECT_LT(v, plan.end(s));
  }
}

TEST(ShardPlan, SingleShardOwnsEverything) {
  const Graph g = testing::cycle_graph(10);
  const ShardPlan plan = plan_shards(g, 1);
  expect_valid_plan(plan, 10, 1);
  EXPECT_EQ(plan.begin(0), 0u);
  EXPECT_EQ(plan.end(0), 10u);
}

TEST(ShardPlan, FewerNodesThanShardsLeavesEmptyShards) {
  const Graph g = testing::path_graph(3);
  const ShardPlan plan = plan_shards(g, 8);
  expect_valid_plan(plan, 3, 8);
  unsigned empty = 0;
  for (unsigned s = 0; s < plan.shards(); ++s) {
    if (plan.begin(s) == plan.end(s)) ++empty;
  }
  EXPECT_GE(empty, 5u);  // at most 3 shards can be non-empty
}

TEST(ShardPlan, BalancesByDegree) {
  // Half the nodes form a clique (high degree), half a path (low degree):
  // an equal-node split would put all the edge weight in one shard; the
  // degree-balanced split must not.
  GraphBuilder b(40);
  std::vector<NodeId> clique;
  for (NodeId v = 0; v < 20; ++v) clique.push_back(v);
  b.add_clique(clique);
  for (NodeId v = 20; v + 1 < 40; ++v) b.add_edge(v, v + 1);
  b.add_edge(19, 20);  // connect the halves
  const Graph g = b.build();

  const ShardPlan plan = plan_shards(g, 2);
  expect_valid_plan(plan, 40, 2);
  std::array<std::uint64_t, 2> weight{};
  for (NodeId v = 0; v < 40; ++v) {
    weight[plan.node_shard[v]] += g.degree(v) + 1;
  }
  const std::uint64_t total = weight[0] + weight[1];
  // Each side within [25%, 75%] of the weight — an equal-node split would
  // be ~90/10.
  EXPECT_GE(weight[0] * 4, total);
  EXPECT_GE(weight[1] * 4, total);
}

TEST(ShardPlan, ClampsShardCount) {
  const Graph g = testing::cycle_graph(8);
  EXPECT_EQ(plan_shards(g, 0).shards(), 1u);
  EXPECT_EQ(plan_shards(g, 100'000).shards(), kMaxShards);
}

TEST(ShardPlan, DeterministicForFixedInputs) {
  Rng rng(3);
  const Graph g = erdos_renyi(64, 0.15, rng);
  const ShardPlan a = plan_shards(g, 4);
  const ShardPlan b = plan_shards(g, 4);
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.node_shard, b.node_shard);
}

// ---------------------------------------------------------------------------
// ShardPool
// ---------------------------------------------------------------------------

TEST(ShardPool, RunsEveryJobExactlyOnce) {
  ShardPool pool(4);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::atomic<int>> hits(17);
  for (int round = 0; round < 50; ++round) {  // repeated barriers
    pool.run(17, [&](unsigned i) { hits[i].fetch_add(1); });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}

TEST(ShardPool, InlineWhenSingleThreaded) {
  ShardPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  int sum = 0;  // safe: no workers, everything inline
  pool.run(5, [&](unsigned i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 10);
}

TEST(ShardPool, PropagatesTheFirstException) {
  ShardPool pool(3);
  EXPECT_THROW(
      pool.run(8,
               [](unsigned i) {
                 if (i % 2 == 1) throw std::runtime_error("job failed");
               }),
      std::runtime_error);
  // The pool survives a throwing run.
  std::atomic<int> ok{0};
  pool.run(8, [&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

// ---------------------------------------------------------------------------
// Sharded network edge cases
// ---------------------------------------------------------------------------

/// Sends one closed ping stream to every neighbour, finishes when it has
/// received (and fully read) a finished ping from each.
class PingAll : public INode {
 public:
  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_all(StreamKey{kPing, api.id(), 0});
    ch.put_bit(true);  // 1 bit: fits any budget, even tiny-n graphs
    ch.close();
  }
  void on_round(NodeApi& api) override {
    std::size_t finished = 0;
    for (std::size_t ni = 0; ni < api.degree(); ++ni) {
      InStream* in =
          api.find_in(ni, StreamKey{kPing, api.neighbors()[ni], 0});
      if (in == nullptr) continue;
      while (in->available() > 0) checksum += in->pop(1);
      if (in->finished()) ++finished;
    }
    if (finished == api.degree()) api.set_done();
  }
  std::uint64_t checksum = 0;
};

/// Sleeps to a fixed horizon (re-arming if woken early by traffic).
class SleepTo : public INode {
 public:
  explicit SleepTo(std::uint64_t horizon) : horizon_(horizon) {}
  void on_start(NodeApi& api) override { api.set_alarm(horizon_); }
  void on_round(NodeApi& api) override {
    if (api.round() >= horizon_) {
      api.set_done();
    } else {
      api.set_alarm(horizon_);
    }
  }

 private:
  std::uint64_t horizon_;
};

RunStats run_ping_all(const Graph& g, unsigned threads) {
  NetConfig cfg;
  cfg.threads = threads;
  Network net(g, cfg, [](NodeId) { return std::make_unique<PingAll>(); });
  return net.run();
}

TEST(ShardedNetwork, MoreShardsThanNodes) {
  // n = 3, threads = 8: five shards are empty; the round must still
  // deliver across the two shard cuts and terminate.
  const Graph g = testing::path_graph(3);
  const RunStats serial = run_ping_all(g, 1);
  const RunStats sharded = run_ping_all(g, 8);
  EXPECT_FALSE(sharded.stalled);
  EXPECT_EQ(serial.rounds, sharded.rounds);
  EXPECT_EQ(serial.messages, sharded.messages);
  EXPECT_EQ(serial.bits, sharded.bits);
}

TEST(ShardedNetwork, CrossShardChatterMatchesSerial) {
  // A cycle cut into 4 shards: every shard's boundary nodes exchange
  // traffic with the neighbouring shard in both directions.
  const Graph g = testing::cycle_graph(32);
  const RunStats serial = run_ping_all(g, 1);
  const RunStats sharded = run_ping_all(g, 4);
  EXPECT_FALSE(sharded.stalled);
  EXPECT_EQ(serial.rounds, sharded.rounds);
  EXPECT_EQ(serial.messages, sharded.messages);
  EXPECT_EQ(serial.bits, sharded.bits);
  EXPECT_EQ(serial.bits_by_kind, sharded.bits_by_kind);
  EXPECT_EQ(serial.max_message_bits, sharded.max_message_bits);
}

TEST(ShardedNetwork, AlarmsAcrossShardBoundary) {
  // Nodes 0..15 chatter (shard 0 at k = 2); nodes 16..31 only sleep on
  // alarms at distinct horizons (shard 1). The alarm machinery is
  // shard-local, so the sleepers' wake-ups must fire at their exact rounds
  // while the other shard is busy, and the network must not stall or
  // fast-forward past a live alarm.
  GraphBuilder b(32);
  for (NodeId v = 0; v + 1 < 16; ++v) b.add_edge(v, v + 1);
  for (NodeId v = 16; v + 1 < 32; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();

  for (const unsigned threads : {1u, 2u, 5u}) {
    NetConfig cfg;
    cfg.threads = threads;
    Network net(g, cfg, [](NodeId v) -> std::unique_ptr<INode> {
      if (v < 16) return std::make_unique<PingAll>();
      return std::make_unique<SleepTo>(200 + (v - 16) * 10);
    });
    const RunStats stats = net.run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_FALSE(stats.stalled);
    EXPECT_FALSE(stats.hit_round_limit);
    // The run ends exactly at the last sleeper's horizon.
    EXPECT_EQ(stats.rounds, 200u + 15u * 10u);
  }
}

/// Streams `symbols` bytes to its ring successor and reads its
/// predecessor's stream to the end.
class RingChatter : public INode {
 public:
  RingChatter(NodeId n, std::size_t symbols) : n_(n), symbols_(symbols) {}
  void on_start(NodeApi& api) override {
    const NodeId next = (api.id() + 1) % n_;
    auto ch = api.open_stream_one(StreamKey{kPing, api.id(), 0},
                                  api.neighbor_index(next));
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }
  void on_round(NodeApi& api) override {
    const NodeId prev = (api.id() + n_ - 1) % n_;
    InStream* in =
        api.find_in(api.neighbor_index(prev), StreamKey{kPing, prev, 0});
    if (in == nullptr) return;
    while (in->available() > 0) checksum += in->pop(8);
    if (in->finished()) api.set_done();
  }
  std::uint64_t checksum = 0;

 private:
  NodeId n_;
  std::size_t symbols_;
};

TEST(ShardedNetwork, UnicastRingLaneBytesStayFlatAcrossThreadCounts) {
  // Unicast ring traffic is the same at every thread count; only its split
  // over lanes changes. With 4 shards almost every message stays in its
  // shard's own lane, so the summed lane capacity (NetProfile's
  // arena_bytes_total) must stay within 1.25x of the single lane's.
  constexpr NodeId kN = 1000;
  const Graph g = testing::cycle_graph(kN);
  const auto run = [&](unsigned threads, NetProfile& prof) {
    NetConfig cfg;
    cfg.threads = threads;
    cfg.profile = &prof;
    Network net(g, cfg, [&](NodeId) -> std::unique_ptr<INode> {
      return std::make_unique<RingChatter>(kN, 64);
    });
    return net.run();
  };
  NetProfile p1, p4;
  const RunStats s1 = run(1, p1);
  const RunStats s4 = run(4, p4);
  EXPECT_FALSE(s1.stalled);
  EXPECT_GT(s1.rounds, 5u);  // several rounds of staging through the lanes
  EXPECT_EQ(s1.rounds, s4.rounds);
  EXPECT_EQ(s1.messages, s4.messages);
  EXPECT_EQ(s1.bits, s4.bits);
  EXPECT_EQ(s1.max_message_bits, s4.max_message_bits);
  EXPECT_EQ(s1.bits_by_kind, s4.bits_by_kind);
  EXPECT_EQ(s1.stalled, s4.stalled);
  EXPECT_EQ(s1.hit_round_limit, s4.hit_round_limit);
  ASSERT_GT(p1.arena_bytes_total, 0u);
  EXPECT_EQ(p1.arena_bytes_peak_shard, p1.arena_bytes_total);  // one shard
  EXPECT_LE(p4.arena_bytes_total * 4, p1.arena_bytes_total * 5)
      << "1 thread: " << p1.arena_bytes_total
      << " B, 4 threads: " << p4.arena_bytes_total << " B";
  EXPECT_LT(p4.arena_bytes_peak_shard, p1.arena_bytes_peak_shard);
}

TEST(ShardedNetwork, ShardCountIsReported) {
  const Graph g = testing::cycle_graph(12);
  NetConfig cfg;
  cfg.threads = 3;
  Network net(g, cfg, [](NodeId) { return std::make_unique<PingAll>(); });
  EXPECT_EQ(net.shard_count(), 3u);
}

}  // namespace
}  // namespace nc
