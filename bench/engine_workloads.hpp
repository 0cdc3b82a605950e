#pragma once

// The engine workloads of bench_runtime_scale, bench_parallel_scale and
// bench_perf_gate: graph builders, traffic nodes, the one DistNearClique
// configuration, timed runners and the JSON row writer. Each bench keeps
// only its policy (rows, thread counts, floors), so the gate and the BENCH
// artifacts cannot drift apart. Header-only: CMake builds one binary per
// bench/bench_*.cpp. A runner exits 1 when its run stalled or hit the round
// limit, since an aborted run's rates measure the abort, not the engine.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "runtime/network.hpp"
#include "util/bitio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nc::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ring + `chords_per_node` random chords per node, with a clique on IDs
/// 0..clique-1 and `halo_per_member` random edges from each clique member
/// to the rest. Connected, sparse, O(n + m) to build.
inline Graph planted_clique_sparse(NodeId n, NodeId clique,
                                   unsigned chords_per_node,
                                   unsigned halo_per_member,
                                   std::uint64_t seed) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned c = 0; c < chords_per_node; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  std::vector<NodeId> members;
  for (NodeId v = 0; v < clique; ++v) members.push_back(v);
  b.add_clique(members);
  for (const NodeId m : members) {
    for (unsigned h = 0; h < halo_per_member; ++h) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != m) b.add_edge(m, u);
    }
  }
  return b.build();
}

/// Ring + `chords_per_node` random chords per node, no clique.
inline Graph ring_with_chords(NodeId n, unsigned chords_per_node,
                              std::uint64_t seed) {
  return planted_clique_sparse(n, 0, chords_per_node, 0, seed);
}

/// The protocol rows' instance: a 32-clique with a 3-edge halo per member
/// on a ring + chords background. 2 chords per node is avg degree ~7 (the
/// planted_protocol rows), 24 is avg degree ~50 (broadcast_fanout).
inline Graph protocol_graph(NodeId n, unsigned chords_per_node) {
  return planted_clique_sparse(n, 32, chords_per_node, 3, /*seed=*/11);
}

/// 8-bit symbols a stream needs to keep one link busy for `rounds` rounds:
/// one message carries floor((B - header) / 8) of them.
inline std::size_t symbols_for_rounds(NodeId n, std::uint64_t rounds) {
  const unsigned idb = id_width(n);
  return (8u * idb - stream_header_bits(idb)) / 8 * rounds;
}

constexpr std::uint16_t kChatKind = 1;

/// Streams `symbols` 8-bit symbols to neighbour `to`, reads the stream of
/// neighbour `from`, and finishes when that stream is fully delivered.
/// Wakes on deliveries only.
class ChatterNode : public INode {
 public:
  ChatterNode(NodeId to, NodeId from, std::size_t symbols)
      : to_(to), from_(from), symbols_(symbols) {}

  void on_start(NodeApi& api) override {
    from_ni_ = api.neighbor_index(from_);
    auto ch = api.open_stream_one(StreamKey{kChatKind, api.id(), 0},
                                  api.neighbor_index(to_));
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }

  void on_round(NodeApi& api) override {
    InStream* in = api.find_in(from_ni_, StreamKey{kChatKind, from_, 0});
    if (in == nullptr) return;
    while (in->available() > 0) checksum_ += in->pop(8);
    if (in->finished()) api.set_done();
  }

 private:
  NodeId to_;
  NodeId from_;
  std::size_t symbols_;
  std::size_t from_ni_ = 0;
  std::uint64_t checksum_ = 0;  // keeps the symbol reads observable
};

/// Sleeps on one far alarm, then finishes.
class SleeperNode : public INode {
 public:
  explicit SleeperNode(std::uint64_t horizon) : horizon_(horizon) {}
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

/// What a runner may vary; everything else about a workload is fixed here.
struct RunOptions {
  unsigned threads = 1;
  bool profile = true;        ///< attach a NetProfile (off on gate floors)
  TelemetryPlan telemetry{};  ///< recording off unless set
};

/// One timed execution.
struct EngineRun {
  std::string name;
  NodeId n = 0;
  std::uint64_t m = 0;
  RunStats stats;
  double build_seconds = 0;  ///< Network construction, on_start included
  double run_seconds = 0;    ///< Network::run
  NetProfile profile;        ///< all zero when RunOptions::profile is off
  std::vector<Label> labels; ///< DistNearClique output (protocol rows only)
};

/// count / seconds, 0 for an unmeasurably short interval.
inline double per_sec(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0;
}

/// RunStats as its JSON text: the field-complete value the determinism and
/// observer checks compare.
inline std::string stats_json(const RunStats& stats) {
  JsonWriter w;
  stats.to_json(w);
  return w.str();
}

/// Builds the network from `factory`, runs it, and times both halves.
template <typename Factory>
EngineRun timed_run(std::string name, const Graph& g, NetConfig cfg,
                    const RunOptions& opts, Factory&& factory) {
  EngineRun run;
  run.name = std::move(name);
  run.n = g.n();
  run.m = g.m();
  cfg.threads = opts.threads;
  cfg.profile = opts.profile ? &run.profile : nullptr;
  cfg.telemetry = opts.telemetry;
  const auto t0 = Clock::now();
  Network net(g, cfg, factory);
  run.build_seconds = seconds_since(t0);
  const auto t1 = Clock::now();
  run.stats = net.run();
  run.run_seconds = seconds_since(t1);
  if (run.stats.stalled || run.stats.hit_round_limit) {
    std::cerr << "error: " << run.name << " n=" << run.n
              << " threads=" << opts.threads << " aborted ("
              << run.stats.summary() << ")\n";
    std::exit(1);
  }
  if (g.n() > 0 && dynamic_cast<DistNearCliqueNode*>(&net.node(0))) {
    for (NodeId v = 0; v < g.n(); ++v) {
      run.labels.push_back(
          static_cast<DistNearCliqueNode&>(net.node(v)).label());
    }
  }
  return run;
}

/// sparse_idle: `pairs` ring-neighbour pairs, spread across the ID space,
/// stream at each other for ~`target_rounds` rounds while every other node
/// sleeps until the chatter is over. Per-round work should track the
/// handful of busy links, not n or m.
inline EngineRun run_sparse_idle(NodeId n, std::uint64_t target_rounds,
                                 unsigned pairs, const RunOptions& opts) {
  const Graph g = ring_with_chords(n, 3, /*seed=*/42);
  const std::size_t symbols = symbols_for_rounds(n, target_rounds);
  const std::uint64_t horizon = target_rounds + 8;
  std::vector<NodeId> partner(n, kNoNode);
  for (unsigned i = 0; i < pairs; ++i) {
    const auto a = static_cast<NodeId>((static_cast<std::uint64_t>(i) + 1) *
                                       n / (pairs + 1));
    const NodeId b = (a + 1) % n;
    partner[a] = b;
    partner[b] = a;
  }
  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = horizon + 16;
  return timed_run("sparse_idle", g, cfg, opts,
                   [&](NodeId v) -> std::unique_ptr<INode> {
                     if (partner[v] == kNoNode) {
                       return std::make_unique<SleeperNode>(horizon);
                     }
                     return std::make_unique<ChatterNode>(partner[v],
                                                          partner[v], symbols);
                   });
}

/// ring_chatter: every node streams ~`target_rounds` rounds of traffic to
/// its ring successor, so every ring link is busy every round — the
/// maximally parallel delivery load.
inline EngineRun run_ring_chatter(const Graph& g, std::uint64_t target_rounds,
                                  const RunOptions& opts) {
  const NodeId n = g.n();
  const std::size_t symbols = symbols_for_rounds(n, target_rounds);
  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = target_rounds + 64;
  return timed_run("ring_chatter", g, cfg, opts, [&](NodeId v) {
    return std::make_unique<ChatterNode>((v + 1) % n, (v + n - 1) % n,
                                         symbols);
  });
}

/// The one DistNearClique configuration of the engine benches. max_rounds
/// is the algorithm registry's default: the time-bound wrapper's decision
/// budget alone is 4n + 256 rounds, so a smaller limit leaves large
/// instances a one-round version window and the run aborts.
inline DriverConfig protocol_config() {
  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.05;
  cfg.proto.versions = 1;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 32'000'000;
  return cfg;
}

/// DistNearClique end to end on `g`; build_seconds includes the schedule.
inline EngineRun run_protocol(std::string name, const Graph& g,
                              const RunOptions& opts) {
  const DriverConfig cfg = protocol_config();
  const auto t0 = Clock::now();
  const Schedule schedule = make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
  const double schedule_seconds = seconds_since(t0);
  EngineRun run = timed_run(std::move(name), g, cfg.net, opts, [&](NodeId) {
    return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
  });
  run.build_seconds += schedule_seconds;
  return run;
}

/// One result row as a single-line JSON object: identity and counts, the
/// two timings and their rates, then the NetProfile columns. `extra(w)`
/// appends the bench's own columns before the object closes.
template <typename Extra>
std::string row_json(const EngineRun& r, Extra&& extra) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(r.name);
  w.key("n").value(std::uint64_t{r.n});
  w.key("m").value(r.m);
  w.key("rounds").value(r.stats.rounds);
  w.key("messages").value(r.stats.messages);
  w.key("bits").value(r.stats.bits);
  w.key("build_seconds").value(r.build_seconds);
  w.key("run_seconds").value(r.run_seconds);
  w.key("rounds_per_sec").value(per_sec(r.stats.rounds, r.run_seconds));
  w.key("deliveries_per_sec").value(per_sec(r.stats.messages, r.run_seconds));
  w.key("stage_seconds").value(r.profile.stage_seconds);
  w.key("deliver_seconds").value(r.profile.deliver_seconds);
  w.key("wake_seconds").value(r.profile.wake_seconds);
  w.key("arena_bytes_total").value(r.profile.arena_bytes_total);
  w.key("arena_bytes_peak_shard").value(r.profile.arena_bytes_peak_shard);
  w.key("lane_msgs_peak").value(r.profile.lane_msgs_peak);
  w.key("broadcast_payload_bytes_saved")
      .value(r.profile.broadcast_payload_bytes_saved);
  extra(w);
  w.end_object();
  return w.str();
}

/// Writes a BENCH artifact, one result row per line:
/// {"bench": NAME, <head>, "results": [ROWS]}. `head` holds zero or more
/// complete `  "key": value,` member lines.
inline bool write_artifact(const std::string& path, const std::string& bench,
                           const std::string& head,
                           const std::vector<std::string>& rows) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"" << bench << "\",\n" << head
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    " << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.good();
}

/// Parses the artifact benches' `[--json PATH] [--full]` flags into
/// `json_path` and `full`; prints `usage` and exits 2 on anything else.
inline void parse_args(int argc, char** argv, const char* usage,
                       std::string& json_path, bool& full) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::cerr << "usage: " << usage << "\nunknown argument: " << argv[i]
                << "\n";
      std::exit(2);
    }
  }
}

}  // namespace nc::bench
