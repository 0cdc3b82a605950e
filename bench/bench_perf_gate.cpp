// CI perf-regression gate: three pinned runtime workloads with committed
// rounds/sec floors. The gate FAILS (exit 1) if the best of three runs of
// any workload drops below its floor — catching order-of-magnitude hot
// path regressions (an accidental O(n) scan, a lost fast path), not
// percent-level drift. The floors were set >= 2x below single runs on a
// 1-core container, but on a 4-core host the worst of four gate runs
// cleared them by only 1.05x (sparse_idle), 1.22x (planted_protocol) and
// 1.14x (broadcast_fanout): treat a lone failure on a loaded machine as
// noise first. --floor-scale=X scales every floor at invocation time.
//
// The workloads come from bench/engine_workloads.hpp, shared with
// bench_runtime_scale, so a failure can be cross-read against
// BENCH_runtime.json. Here the profile is off, and the protocol rows divide
// by Network construction plus run (sparse_idle by the run alone):
//  - sparse_idle n=10k: per-round cost must track the few busy links.
//  - planted_protocol n=10k: DistNearClique end to end, low degree.
//  - broadcast_fanout n=4k (the artifact's row is n=10k): avg degree ~50,
//    the broadcast payload-dedup path.
//
// A fourth check gates correctness: the telemetry observer-effect contract.
// broadcast_fanout 4k runs with telemetry off and with metrics, trace and
// probes on; the full RunStats and the labels must be identical and the
// capture non-empty (src/runtime/telemetry.hpp). The floors double as the
// disabled-path cost gate, since every floor row runs with telemetry off.
//
// Usage: bench_perf_gate [--floor-scale=X] [--json PATH]

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "engine_workloads.hpp"
#include "runtime/telemetry.hpp"

namespace nc::bench {
namespace {

// Committed floors, in rounds/sec: one run on the 1-core container that
// regenerated BENCH_runtime.json, divided by >= 2x.
constexpr double kSparseIdleFloor = 70'000.0;      // measured ~156k r/s
constexpr double kPlantedProtoFloor = 180.0;       // measured ~410 r/s
constexpr double kBroadcastFanoutFloor = 140.0;    // measured ~314 r/s

/// Floor rows run with the profile and telemetry off.
const RunOptions kFloorOptions{.profile = false};

/// Telemetry gate: the broadcast_fanout 4k workload with recording off and
/// with every facet on must give identical RunStats and labels, and the
/// capture must be non-empty. The recording cost is printed, not gated.
bool telemetry_observer_passes(const Graph& g) {
  const EngineRun off = run_protocol("broadcast_fanout", g, kFloorOptions);
  Telemetry sink;
  RunOptions on_opts = kFloorOptions;
  on_opts.telemetry =
      parse_telemetry_plan("tel_metrics=1,tel_trace=1,tel_probes=1");
  on_opts.telemetry.sink = &sink;
  const EngineRun on = run_protocol("broadcast_fanout", g, on_opts);

  const bool identical =
      stats_json(off.stats) == stats_json(on.stats) && off.labels == on.labels;
  const bool captured = sink.metrics.samples() > 0 && !sink.spans.empty() &&
                        !sink.probes.empty();
  const bool pass = identical && captured;
  std::cout << (pass ? "PASS " : "FAIL ")
            << "telemetry_observer_4k: RunStats and labels "
            << (identical ? "identical" : "DIVERGED")
            << " with recording on; capture "
            << (captured ? "non-empty" : "EMPTY") << " ("
            << sink.metrics.samples() << " samples, " << sink.spans.size()
            << " spans, " << sink.probes.size() << " probes); run "
            << on.run_seconds << " s on vs " << off.run_seconds << " s off\n";
  return pass;
}

struct GateResult {
  std::string name;
  double best_rounds_per_sec = 0;
  double floor = 0;
  bool pass = false;
};

/// Best-of-3 rounds/sec of `run_once()`. With `with_build` the rate divides
/// by Network construction plus run (the protocol rows), else by the run.
template <typename Fn>
GateResult gate(const std::string& name, double floor, double scale,
                bool with_build, Fn&& run_once) {
  GateResult r;
  r.name = name;
  r.floor = floor * scale;
  RunStats stats;
  for (int i = 0; i < 3; ++i) {
    const EngineRun run = run_once();
    const double secs = run.run_seconds + (with_build ? run.build_seconds : 0);
    r.best_rounds_per_sec =
        std::max(r.best_rounds_per_sec, per_sec(run.stats.rounds, secs));
    stats = run.stats;
  }
  r.pass = r.best_rounds_per_sec >= r.floor;
  std::cout << (r.pass ? "PASS " : "FAIL ") << name
            << ": best-of-3 rounds/sec = " << r.best_rounds_per_sec
            << " (floor " << r.floor << "; rounds=" << stats.rounds
            << " messages=" << stats.messages << ")\n";
  return r;
}

}  // namespace
}  // namespace nc::bench

int main(int argc, char** argv) {
  using namespace nc::bench;
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

  const nc::Graph planted = protocol_graph(10'000, 2);
  const nc::Graph fanout = protocol_graph(4'000, 24);
  std::vector<GateResult> results;
  results.push_back(gate("sparse_idle_10k", kSparseIdleFloor, scale, false, [] {
    return run_sparse_idle(10'000, 1'000, 16, kFloorOptions);
  }));
  const auto protocol = [](const char* name, const nc::Graph& g) {
    return [name, &g] { return run_protocol(name, g, kFloorOptions); };
  };
  results.push_back(gate("planted_protocol_10k", kPlantedProtoFloor, scale,
                         true, protocol("planted_protocol", planted)));
  results.push_back(gate("broadcast_fanout_4k", kBroadcastFanoutFloor, scale,
                         true, protocol("broadcast_fanout", fanout)));

  // Correctness gate rather than a throughput floor: telemetry recording
  // must not perturb the simulated execution.
  if (!telemetry_observer_passes(fanout)) {
    std::cerr << "perf gate FAILED: telemetry recording changed the "
                 "fixed-seed RunStats or labels (observer-effect contract)\n";
    return 1;
  }

  if (!json_path.empty()) {
    std::vector<std::string> rows;
    for (const GateResult& r : results) {
      nc::JsonWriter w;
      w.begin_object();
      w.key("name").value(r.name);
      w.key("best_rounds_per_sec").value(r.best_rounds_per_sec);
      w.key("floor").value(r.floor);
      w.key("pass").value(r.pass);
      w.end_object();
      rows.push_back(w.str());
    }
    const std::string head =
        "  \"floor_scale\": " + nc::JsonWriter::number(scale) + ",\n";
    if (!write_artifact(json_path, "perf_gate", head, rows)) {
      std::cerr << "error: could not write " << json_path << "\n";
      return 1;
    }
  }

  for (const GateResult& r : results) {
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
