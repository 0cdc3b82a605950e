// CI perf-regression gate: three pinned runtime workloads with committed
// rounds/sec floors. The gate FAILS (exit 1) if the best of three runs of
// any workload drops below its floor — catching order-of-magnitude hot
// path regressions (an accidental O(n) scan, a lost fast path) while being
// deliberately insensitive to machine speed:
//
//  - Floors were set at >= 2x below single measurements on a 1-core
//    container, but the slack does not hold across runs: on a 4-core host,
//    four gate runs swung ~1.9x best-of-3, and the worst run cleared its
//    floors by only 1.05x (sparse_idle), 1.22x (planted_protocol) and
//    1.14x (broadcast_fanout). Treat a lone failure on a loaded machine as
//    noise before treating it as a regression.
//  - Best-of-three measures the machine's capability, not its worst
//    scheduling hiccup.
//
// Escape hatch when a runner is slower than the floors allow (or a
// deliberate engine change moves them): --floor-scale=0.5 scales every
// floor at invocation time.
//
// The pinned workloads mirror BENCH_runtime.json rows (bench_runtime_scale)
// so a floor failure can be cross-read against the committed artifact:
//  - sparse_idle n=10k: event-driven idle scheduling — per-round cost must
//    track the handful of busy links, not n or m.
//  - planted_protocol n=10k: DistNearClique end-to-end — the mixed
//    stage/deliver/wake + protocol load (avg degree ~4).
//  - broadcast_fanout n=4k: DistNearClique on an avg-degree ~50 graph —
//    the broadcast payload-dedup path; a lost dedup fast path shows up
//    here long before it moves the low-degree rows.
//
// A fourth check gates correctness, not throughput: the telemetry engine's
// observer-effect contract (recording on vs off must leave the fixed-seed
// RunStats bit-identical; src/runtime/telemetry.hpp). The floors double as
// the disabled-path cost gate — every floor workload runs with telemetry
// off, so a null-check that stopped being free would drop them.
//
// Usage: bench_perf_gate [--floor-scale=X] [--json PATH]

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/params.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "runtime/network.hpp"
#include "runtime/telemetry.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

namespace nc {
namespace {

using Clock = std::chrono::steady_clock;

// Committed floors, in rounds/sec. Set from one run on the 1-core
// container that regenerated BENCH_runtime.json, divided by >= 2x; the
// header records how much of that margin survives run-to-run spread. See
// the artifact for the measured numbers these derive from.
constexpr double kSparseIdleFloor = 70'000.0;      // measured ~156k r/s
constexpr double kPlantedProtoFloor = 180.0;       // measured ~410 r/s
constexpr double kBroadcastFanoutFloor = 140.0;    // measured ~314 r/s

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Graph ring_with_chords(NodeId n, unsigned chords_per_node, std::uint64_t seed) {
  GraphBuilder b(n);
  Rng rng(seed);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned c = 0; c < chords_per_node; ++c) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph planted_clique_sparse(NodeId n, NodeId clique, unsigned chords_per_node,
                            unsigned halo_per_member, std::uint64_t seed) {
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

constexpr std::uint16_t kChatKind = 1;

class ChatterNode : public INode {
 public:
  ChatterNode(std::size_t partner_ni, std::size_t symbols)
      : partner_ni_(partner_ni), symbols_(symbols) {}

  void on_start(NodeApi& api) override {
    auto ch = api.open_stream_one(StreamKey{kChatKind, 0, 0}, partner_ni_);
    for (std::size_t i = 0; i < symbols_; ++i) ch.put(i & 0xffu, 8);
    ch.close();
  }

  void on_round(NodeApi& api) override {
    InStream* in = api.find_in(partner_ni_, StreamKey{kChatKind, 0, 0});
    if (in == nullptr) return;
    while (in->available() > 0) checksum_ += in->pop();
    if (in->finished()) api.set_done();
  }

  std::uint64_t checksum_ = 0;

 private:
  std::size_t partner_ni_;
  std::size_t symbols_;
};

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

/// One timed run of the sparse_idle workload (bench_runtime_scale's
/// n=10k row); returns rounds/sec.
double run_sparse_idle() {
  const NodeId n = 10'000;
  const std::uint64_t target_rounds = 1'000;
  const unsigned pairs = 16;
  const Graph g = ring_with_chords(n, 3, /*seed=*/42);

  const unsigned idb = id_width(n);
  const std::size_t budget = 8u * idb;
  const std::size_t header = stream_header_bits(idb);
  const std::size_t per_round = (budget - header) / 8;
  const std::size_t symbols = per_round * target_rounds;
  const std::uint64_t horizon = target_rounds + 8;

  std::vector<NodeId> lo(n, kNoNode);
  for (unsigned i = 0; i < pairs; ++i) {
    const NodeId a = static_cast<NodeId>((static_cast<std::uint64_t>(i) + 1) *
                                         n / (pairs + 1));
    const NodeId b = (a + 1) % n;
    lo[a] = b;
    lo[b] = a;
  }

  NetConfig cfg;
  cfg.seed = 7;
  cfg.max_rounds = horizon + 16;
  Network net(g, cfg, [&](NodeId v) -> std::unique_ptr<INode> {
    if (lo[v] != kNoNode) {
      const auto nb = g.neighbors(v);
      std::size_t ni = 0;
      while (nb[ni] != lo[v]) ++ni;
      return std::make_unique<ChatterNode>(ni, symbols);
    }
    return std::make_unique<SleeperNode>(horizon);
  });

  const auto t0 = Clock::now();
  const RunStats stats = net.run();
  const double secs = seconds_since(t0);
  return secs > 0 ? static_cast<double>(stats.rounds) / secs : 0;
}

/// One timed DistNearClique run on a planted_clique_sparse graph; returns
/// rounds/sec. chords_per_node=2 is the classic sparse planted_protocol
/// load; chords_per_node=24 (avg degree ~50) is the broadcast_fanout load
/// that exercises the stage-side payload dedup.
double run_protocol(NodeId n, unsigned chords_per_node) {
  const Graph g = planted_clique_sparse(n, 32, chords_per_node, 3, /*seed=*/11);

  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.05;
  cfg.proto.versions = 1;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 400'000;

  const Schedule schedule = make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);
  const auto t0 = Clock::now();
  Network net(g, cfg.net, [&](NodeId) {
    return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
  });
  const RunStats stats = net.run();
  const double secs = seconds_since(t0);
  return secs > 0 ? static_cast<double>(stats.rounds) / secs : 0;
}

double run_planted_protocol() { return run_protocol(10'000, 2); }

double run_broadcast_fanout() { return run_protocol(4'000, 24); }

/// Telemetry gate: runs the protocol workload with telemetry off and with
/// every facet on (metrics + trace + probes into a live sink) and checks
/// the observer-effect contract at bench scale — bit-identical RunStats.
/// The recording cost is printed informationally; the disabled path's cost
/// is what the committed floors above gate (every floor workload runs with
/// the default all-off plan, so a hot-path telemetry branch that stopped
/// being free would drop those numbers).
bool run_telemetry_observer_gate() {
  const NodeId n = 4'000;
  const Graph g = planted_clique_sparse(n, 32, 2, 3, /*seed=*/11);

  DriverConfig cfg;
  cfg.proto.eps = 0.2;
  cfg.proto.p = 0.05;
  cfg.proto.versions = 1;
  cfg.net.seed = 5;
  cfg.net.max_rounds = 400'000;
  const Schedule schedule = make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);

  const auto run = [&](Telemetry* sink, double* secs) {
    NetConfig net_cfg = cfg.net;
    if (sink != nullptr) {
      net_cfg.telemetry =
          parse_telemetry_plan("tel_metrics=1,tel_trace=1,tel_probes=1");
      net_cfg.telemetry.sink = sink;
    }
    Network net(g, net_cfg, [&](NodeId) {
      return std::make_unique<DistNearCliqueNode>(cfg.proto, schedule);
    });
    const auto t0 = Clock::now();
    const RunStats stats = net.run();
    *secs = seconds_since(t0);
    return stats;
  };

  double off_secs = 0, on_secs = 0;
  const RunStats off = run(nullptr, &off_secs);
  Telemetry sink;
  const RunStats on = run(&sink, &on_secs);

  const bool identical =
      off.rounds == on.rounds && off.messages == on.messages &&
      off.bits == on.bits && off.max_message_bits == on.max_message_bits &&
      off.bits_by_kind == on.bits_by_kind && off.stalled == on.stalled &&
      off.hit_round_limit == on.hit_round_limit;
  const bool captured =
      sink.metrics.samples() > 0 && !sink.spans.empty() &&
      !sink.probes.empty();
  const bool pass = identical && captured;
  std::cout << (pass ? "PASS " : "FAIL ")
            << "telemetry_observer_4k: RunStats "
            << (identical ? "bit-identical" : "DIVERGED")
            << " with recording on; capture "
            << (captured ? "non-empty" : "EMPTY") << "; recording cost "
            << (off_secs > 0 ? (on_secs / off_secs - 1.0) * 100.0 : 0.0)
            << "% wall-clock\n";
  return pass;
}

struct GateResult {
  std::string name;
  double best_rounds_per_sec = 0;
  double floor = 0;
  bool pass = false;
};

template <typename Fn>
GateResult gate(const std::string& name, double floor, double scale, Fn&& fn) {
  GateResult r;
  r.name = name;
  r.floor = floor * scale;
  for (int i = 0; i < 3; ++i) {
    r.best_rounds_per_sec = std::max(r.best_rounds_per_sec, fn());
  }
  r.pass = r.best_rounds_per_sec >= r.floor;
  std::cout << (r.pass ? "PASS " : "FAIL ") << name
            << ": best-of-3 rounds/sec = " << r.best_rounds_per_sec
            << " (floor " << r.floor << ")\n";
  return r;
}

}  // namespace
}  // namespace nc

int main(int argc, char** argv) {
  double scale = 1.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--floor-scale=", 14) == 0) {
      scale = std::atof(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_perf_gate [--floor-scale=X] [--json PATH]\n"
                << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }
  if (scale <= 0) {
    std::cerr << "error: floor scale must be > 0, got " << scale << "\n";
    return 2;
  }
  std::cout << "perf gate: floor scale " << scale << "\n";

  std::vector<nc::GateResult> results;
  results.push_back(nc::gate("sparse_idle_10k", nc::kSparseIdleFloor, scale,
                             nc::run_sparse_idle));
  results.push_back(nc::gate("planted_protocol_10k", nc::kPlantedProtoFloor,
                             scale, nc::run_planted_protocol));
  results.push_back(nc::gate("broadcast_fanout_4k", nc::kBroadcastFanoutFloor,
                             scale, nc::run_broadcast_fanout));

  // Correctness gate rather than a throughput floor: telemetry recording
  // must not perturb the simulated execution.
  if (!nc::run_telemetry_observer_gate()) {
    std::cerr << "perf gate FAILED: telemetry recording changed the "
                 "fixed-seed RunStats (observer-effect contract)\n";
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"bench\": \"perf_gate\",\n  \"floor_scale\": " << scale
       << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      os << "    {\"name\": \"" << r.name
         << "\", \"best_rounds_per_sec\": " << r.best_rounds_per_sec
         << ", \"floor\": " << r.floor << ", \"pass\": "
         << (r.pass ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  for (const auto& r : results) {
    if (!r.pass) {
      std::cerr << "perf gate FAILED: " << r.name << " at "
                << r.best_rounds_per_sec << " rounds/sec is below the floor "
                << r.floor
                << ".\nIf this machine is genuinely slower than the floors "
                   "allow, rerun with --floor-scale=<x<1>.\n";
      return 1;
    }
  }
  std::cout << "perf gate passed\n";
  return 0;
}
