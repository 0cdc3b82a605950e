// Simulator-core throughput benchmark: rounds/sec and deliveries/sec on
// large sparse and planted-clique graphs, written to BENCH_runtime.json.
// Unlike the E1..E12 benches (protocol *quality* against the paper) this
// one tracks the *runtime* hot path across PRs.
//
// Workloads (defined in bench/engine_workloads.hpp, shared with the perf
// gate and bench_parallel_scale):
//  - sparse_idle: a handful of node pairs stream bits at each other while
//    every other node sleeps on a far alarm. Per-round work should be
//    proportional to the handful, not to n or m.
//  - planted_protocol: the full DistNearClique protocol on a sparse
//    background graph with a planted clique; end-to-end deliveries/sec.
//  - broadcast_fanout: the same protocol on a dense background (avg degree
//    ~50). Nearly every protocol kind is an open_stream_all, so staged bytes
//    grow with degree unless the engine dedups broadcast payloads; this row
//    is the degree-scaling witness (broadcast_payload_bytes_saved).
//
// build_seconds is Network construction (on_start included; for the
// protocol rows also the schedule), run_seconds is Network::run. The rates
// divide by run_seconds. The work counters (rounds, messages, bits, lane
// bytes and message peaks, broadcast bytes saved) are exact on every
// machine, and CI checks a quick run's against the committed artifact.
//
// Usage: bench_runtime_scale [--json PATH] [--full]
//   --json PATH  write the JSON artifact to PATH (default BENCH_runtime.json)
//   --full       include the 500k-node configuration (slower)

#include <iostream>
#include <string>
#include <vector>

#include "engine_workloads.hpp"

int main(int argc, char** argv) {
  using namespace nc::bench;
  std::string json_path = "BENCH_runtime.json";
  bool full = false;
  parse_args(argc, argv, "bench_runtime_scale [--json PATH] [--full]",
             json_path, full);

  const RunOptions opts;
  std::vector<EngineRun> runs;
  runs.push_back(run_sparse_idle(10'000, 1'000, 16, opts));
  runs.push_back(run_sparse_idle(100'000, 1'000, 16, opts));
  if (full) runs.push_back(run_sparse_idle(500'000, 1'000, 16, opts));
  runs.push_back(
      run_protocol("planted_protocol", protocol_graph(10'000, 2), opts));
  if (full) {
    runs.push_back(
        run_protocol("planted_protocol", protocol_graph(50'000, 2), opts));
  }
  runs.push_back(
      run_protocol("broadcast_fanout", protocol_graph(10'000, 24), opts));

  std::vector<std::string> rows;
  for (const EngineRun& r : runs) {
    rows.push_back(row_json(r, [](nc::JsonWriter&) {}));
    std::cout << rows.back() << "\n";
  }
  // Historical reference: the pre-event-driven simulator (per-round full
  // scans over every node and link), measured on the same workloads at the
  // commit that introduced this bench. Kept in the artifact so every
  // regeneration carries the comparison point.
  const std::string baseline =
      "  \"baseline_full_scan\": [\n"
      "    {\"name\": \"sparse_idle\", \"n\": 10000, "
      "\"rounds_per_sec\": 1539.2, \"deliveries_per_sec\": 48863.1},\n"
      "    {\"name\": \"sparse_idle\", \"n\": 100000, "
      "\"rounds_per_sec\": 148.5, \"deliveries_per_sec\": 4714.8},\n"
      "    {\"name\": \"planted_protocol\", \"n\": 10000, "
      "\"rounds_per_sec\": 293.8, \"deliveries_per_sec\": 907509}\n"
      "  ],\n";
  if (!write_artifact(json_path, "runtime_scale", baseline, rows)) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
