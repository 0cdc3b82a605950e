// Sharded-engine scaling benchmark: rounds/sec and deliveries/sec at 1, 2,
// 4 and 8 delivery threads on 100k–1M-node workloads, written to
// BENCH_parallel.json. Two workloads (bench/engine_workloads.hpp) bracket
// the engine:
//
//  - ring_chatter: every node streams to its ring successor, so every link
//    carries traffic every round — the maximally parallel delivery load
//    (pure stage/deliver/wake pipeline, no protocol logic).
//  - planted_protocol: the full DistNearClique protocol on a sparse
//    planted-clique graph — realistic mixed load (bursty traffic, alarms,
//    fast-forwarded idle stretches).
//
// Every configuration is also a determinism cross-check: the full RunStats
// (its JSON text) and the labels of each thread count must equal the
// 1-thread run's (the sharded engine's contract), and the bench exits 1 if
// not. run_seconds is Network::run alone, and speedup_vs_1t divides the
// 1-thread run_seconds by this row's.
//
// The JSON artifact records std::thread::hardware_concurrency() alongside
// the results: thread counts above it time-slice the cores and measure
// synchronization overhead, not speedup. See docs/benchmarks.md.
//
// Usage: bench_parallel_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_parallel.json)
//   --full       include the 1M-node configurations (slower)

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine_workloads.hpp"

int main(int argc, char** argv) {
  using namespace nc::bench;
  std::string json_path = "BENCH_parallel.json";
  bool full = false;
  parse_args(argc, argv, "bench_parallel_scale [--json PATH] [--full]",
             json_path, full);

  std::vector<std::string> rows;
  // Runs one configuration at every thread count against its 1-thread run.
  const auto sweep = [&](const auto& run_at) {
    EngineRun base;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const EngineRun r = run_at(RunOptions{.threads = threads});
      if (threads == 1) {
        base = r;
      } else if (stats_json(r.stats) != stats_json(base.stats) ||
                 r.labels != base.labels) {
        std::cerr << "DETERMINISM VIOLATION: " << r.name << " n=" << r.n
                  << " threads=" << threads
                  << " diverged from the 1-thread run\n";
        std::exit(1);
      }
      rows.push_back(row_json(r, [&](nc::JsonWriter& w) {
        w.key("threads").value(std::uint64_t{threads});
        w.key("speedup_vs_1t").value(per_sec(base.run_seconds, r.run_seconds));
      }));
      std::cout << rows.back() << "\n";
    }
  };

  // (n, rounds of traffic) per ring_chatter configuration.
  std::vector<std::pair<nc::NodeId, std::uint64_t>> chatter = {
      {100'000, 120}, {500'000, 40}};
  if (full) chatter.emplace_back(1'000'000, 24);
  for (const auto& [n, rounds] : chatter) {
    const nc::Graph g = ring_with_chords(n, 3, /*seed=*/42);
    sweep([&](const RunOptions& opts) {
      return run_ring_chatter(g, rounds, opts);
    });
  }

  std::vector<nc::NodeId> proto_sizes = {100'000};
  if (full) proto_sizes.push_back(1'000'000);
  for (const nc::NodeId n : proto_sizes) {
    const nc::Graph g = protocol_graph(n, 2);
    sweep([&](const RunOptions& opts) {
      return run_protocol("planted_protocol", g, opts);
    });
  }

  const std::string head =
      "  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n  \"thread_counts\": [1, 2, 4, 8],\n";
  if (!write_artifact(json_path, "parallel_scale", head, rows)) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
