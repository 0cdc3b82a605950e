// One end-to-end repetition of a benchmark workload, timed from outside.
//
// The runner calls the same public functions, in the same order and with
// the same configuration, as `run_dist_near_clique` behind the
// `dist_near_clique` registry adapter (p = pn / n, network seed = workload
// seed, max_rounds 32M, versions 1):
//
//   make_scenario -> Network(g, cfg, DistNearCliqueNode factory)
//   -> Network::run -> label extraction -> ~Network
//
// and reads a steady_clock between the calls. After the network is gone it
// reads the process's peak RSS, then checks the labels against run_oracle
// (timed separately, never part of the run). With --trace 1 it also turns
// on the instrumentation the engine already exposes — NetConfig::profile and
// the telemetry phase trace with its per-shard spans — and derives the
// per-layer figures from them.
//
// Before the network is built the runner screens the instance: the explore
// stage enumerates all 2^s - 1 subsets of every sampled component (s
// nodes), so its time and memory double with each node. When the largest
// sampled component has more than kMaxComponent nodes, the runner prints
// {"skipped": true, ...} and stops. The screen replays the network's
// sampling coins (oracle_sample + induced_components); it is timed and
// taken out of total_s and setup_s.
//
// Prints one JSON object on stdout. Exit codes: 0 when the repetition ran
// or was screened out (the JSON says which, and whether it was correct),
// 2 on bad arguments, 3 when the trace lost spans.
//
//   e2e_run --workload planted_serial --seed 3 [--trace 1] [--scale 0.05]
//           [--corrupt-labels]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/oracle.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "expt/scenario.hpp"
#include "graph/components.hpp"
#include "runtime/faults.hpp"
#include "runtime/network.hpp"
#include "runtime/reliability.hpp"
#include "runtime/telemetry.hpp"
#include "util/json.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using nc::Label;
using nc::NodeId;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  NodeId n;
  NodeId clique_size;
  double background_p;
  double pn;
  unsigned threads;
  double loss;
  int rel_mode;
};

// The workload table (README.md explains why each one exists). All are
// planted_near_clique with halo_p = background_p and eps = 0.2.
constexpr Workload kWorkloads[] = {
    {"planted_serial", 200000, 400, 5e-5, 2000, 1, 0.0, 0},
    {"planted_sharded", 500000, 600, 2e-5, 3000, 4, 0.0, 0},
    {"lossy_arq", 200000, 400, 5e-5, 2000, 2, 0.01, 1},
};
constexpr double kEps = 0.2;
constexpr std::uint64_t kMaxRounds = 32'000'000;
// Largest sampled component an instance may have. One planted_serial
// instance with 14 took 65 s and 4.3 GB; 12 costs about 15 s and 1 GB.
constexpr std::size_t kMaxComponent = 12;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Peak resident set of this process so far (VmHWM, in KiB), or 0 when
// /proc is unavailable.
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

std::uint64_t fnv1a(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Label l : labels) {
    auto x = static_cast<std::uint64_t>(l);
    for (int i = 0; i < 8; ++i) {
      h ^= (x & 0xff);
      h *= 1099511628211ULL;
      x >>= 8;
    }
  }
  return h;
}

// Members of the largest output cluster (ties: smallest label, matching
// NearCliqueResult::largest_cluster), as a count of planted nodes inside it.
struct ClusterSummary {
  std::uint64_t size = 0;
  std::uint64_t planted_hits = 0;
};

ClusterSummary largest_cluster(const std::vector<Label>& labels,
                               const std::vector<NodeId>& planted) {
  std::unordered_map<Label, std::uint64_t> count;
  for (const Label l : labels) {
    if (l != nc::kBottom) ++count[l];
  }
  ClusterSummary out;
  Label best = nc::kBottom;
  for (const auto& [label, c] : count) {
    if (c > out.size || (c == out.size && label < best)) {
      out.size = c;
      best = label;
    }
  }
  if (out.size == 0) return out;
  for (const NodeId v : planted) {
    if (labels[v] == best) ++out.planted_hits;
  }
  return out;
}

// Per-shard span totals of one phase, from the telemetry trace.
struct PhaseSplit {
  double wall = 0.0;                 // serial-track (tid 0) span time
  std::vector<double> shard;         // per-shard own span time
  [[nodiscard]] double imbalance() const {
    if (shard.empty()) return 1.0;
    double sum = 0.0, mx = 0.0;
    for (const double t : shard) {
      sum += t;
      mx = std::max(mx, t);
    }
    const double mean = sum / static_cast<double>(shard.size());
    return mean > 0.0 ? mx / mean : 1.0;
  }
  // Mean over shards of (phase wall-clock - the shard's own span time).
  [[nodiscard]] double barrier_wait() const {
    if (shard.empty()) return 0.0;
    double sum = 0.0;
    for (const double t : shard) sum += wall - t;
    return sum / static_cast<double>(shard.size());
  }
};

PhaseSplit phase_split(const nc::Telemetry& tel, const char* phase,
                       unsigned shards) {
  PhaseSplit out;
  if (shards > 1) out.shard.assign(shards, 0.0);
  for (const auto& sp : tel.spans) {
    if (std::strcmp(sp.name, phase) != 0) continue;
    const double s = sp.dur_us * 1e-6;
    if (sp.tid == 0) {
      out.wall += s;
    } else if (sp.tid <= out.shard.size()) {
      out.shard[sp.tid - 1] += s;
    }
  }
  return out;
}

std::uint64_t bits_in(const nc::RunStats& st, unsigned lo, unsigned hi) {
  std::uint64_t sum = 0;
  for (unsigned k = lo; k <= hi; ++k) sum += st.bits_by_kind[k];
  return sum;
}

int usage(const char* msg) {
  std::cerr << "e2e_run: " << msg
            << "\nusage: e2e_run --workload NAME --seed N [--trace 0|1] "
               "[--scale F] [--corrupt-labels]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  double scale = 1.0;
  bool corrupt = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        workload_name = argv[++i];
      } else if (a == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (a == "--trace" && has_value) {
        trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--scale" && has_value) {
        scale = std::stod(argv[++i]);
      } else if (a == "--corrupt-labels") {
        corrupt = true;
      } else {
        return usage(("unknown or incomplete argument '" + a + "'").c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) wl = &w;
  }
  if (wl == nullptr) return usage("unknown --workload");
  if (!have_seed) return usage("--seed is required");
  if (!(scale > 0.0 && scale <= 1.0)) return usage("--scale must be in (0, 1]");

  // Scaling keeps the sampling probability p, the planted-set size and the
  // mean background degree, so a scaled-down run exercises the same protocol
  // path at a fraction of the cost (run.py times SCALE = 0.05; the smoke
  // test uses 0.02).
  const auto n = static_cast<NodeId>(static_cast<double>(wl->n) * scale);
  const double bg = wl->background_p / scale;
  const double pn = wl->pn * scale;

  // ---- 1. instance: generator + CSR build ------------------------------
  const auto t_begin = Clock::now();
  const nc::Instance inst = nc::make_scenario(
      "planted_near_clique",
      nc::ScenarioParams()
          .with("n", static_cast<double>(n))
          .with("clique_size", static_cast<double>(wl->clique_size))
          .with("background_p", bg)
          .with("halo_p", bg),
      seed);
  const auto t_instance = Clock::now();
  const nc::Graph& g = inst.graph;

  // ---- configuration, exactly as the dist_near_clique adapter builds it --
  nc::DriverConfig cfg;
  cfg.proto.eps = kEps;
  cfg.proto.p = pn / static_cast<double>(g.n());
  cfg.proto.versions = 1;
  cfg.proto.version_budget = 0;
  cfg.net.seed = seed;
  cfg.net.max_rounds = kMaxRounds;
  cfg.net.threads = wl->threads;
  nc::ParamSet adversity;
  for (const auto& [k, v] : nc::fault_param_defaults().values()) {
    adversity.with(k, v);
  }
  for (const auto& [k, v] : nc::reliability_param_defaults().values()) {
    adversity.with(k, v);
  }
  adversity.with("loss", wl->loss).with("rel_mode", wl->rel_mode);
  cfg.net.faults = nc::fault_plan_from_params(adversity);
  cfg.net.reliability = nc::reliability_plan_from_params(adversity);

  nc::NetProfile prof;
  nc::Telemetry tel;
  if (trace) {
    cfg.net.profile = &prof;
    nc::TelemetryPlan plan;
    plan.trace = true;
    plan.max_spans = 1ULL << 26;
    plan.sink = &tel;
    cfg.net.telemetry = plan;
  }
  const nc::Schedule schedule =
      nc::make_schedule(cfg.proto, g.n(), cfg.net.max_rounds);

  // ---- screen: largest sampled component (not part of a run) -----------
  const auto t_screen0 = Clock::now();
  std::size_t s_max = 0;
  // Versions are numbered from 1 (run_oracle draws the same sample).
  for (const auto& comp : nc::induced_components(
           g, nc::oracle_sample(g, cfg.proto.p, cfg.net.seed, 1))) {
    s_max = std::max(s_max, comp.size());
  }
  const auto t_screen1 = Clock::now();
  if (s_max > kMaxComponent) {
    nc::JsonWriter w;
    w.begin_object();
    w.key("workload").value(wl->name);
    w.key("seed").value(seed);
    w.key("skipped").value(true);
    w.key("s_max").value(static_cast<std::uint64_t>(s_max));
    w.key("max_component").value(static_cast<std::uint64_t>(kMaxComponent));
    w.end_object();
    std::cout << w.str() << '\n';
    return 0;
  }

  // ---- 2. network construction (CSR links, node factory, on_start) -----
  const auto t_ctor0 = Clock::now();
  auto net = std::make_unique<nc::Network>(g, cfg.net, [&](NodeId) {
    return std::make_unique<nc::DistNearCliqueNode>(cfg.proto, schedule);
  });
  const auto t_ctor1 = Clock::now();

  // ---- 3. rounds --------------------------------------------------------
  const nc::RunStats stats = net->run();
  const auto t_run = Clock::now();

  // ---- 4. label extraction ----------------------------------------------
  std::vector<Label> labels(g.n(), nc::kBottom);
  std::uint64_t local_ops = 0;
  std::vector<nc::RootCandidate> candidates;
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& node = static_cast<nc::DistNearCliqueNode&>(net->node(v));
    labels[v] = node.label();
    local_ops += node.local_ops();
    for (const auto& rc : node.root_candidates()) candidates.push_back(rc);
  }
  const bool aborted = stats.hit_round_limit || stats.stalled;
  if (aborted) {
    std::fill(labels.begin(), labels.end(), nc::kBottom);
    std::cerr << net->stall_report().summary();
  }
  const unsigned shards = net->shard_count();
  const auto t_extract = Clock::now();

  // ---- 5. teardown ------------------------------------------------------
  net.reset();
  const auto t_end = Clock::now();
  const std::uint64_t rss_kib = peak_rss_kib();

  // ---- correctness: the centralized oracle on the same instance ---------
  if (corrupt && !labels.empty()) labels[0] ^= 1;
  const auto t_oracle0 = Clock::now();
  const nc::OracleResult oracle = nc::run_oracle(g, cfg.proto, cfg.net.seed);
  const auto t_oracle1 = Clock::now();
  std::string failure;
  if (aborted) {
    failure = stats.stalled ? "run stalled" : "run hit the round limit";
  } else if (oracle.labels != labels) {
    NodeId first = 0;
    while (first < g.n() && oracle.labels[first] == labels[first]) ++first;
    failure = "labels differ from run_oracle (first at node " +
              std::to_string(first) + ")";
  }
  const ClusterSummary best = largest_cluster(labels, inst.planted);

  const double instance_s = seconds(t_begin, t_instance);
  const double ctor_s = seconds(t_ctor0, t_ctor1);
  const double solve_s = seconds(t_ctor1, t_run);
  const double teardown_s = seconds(t_run, t_end);
  const double screen_s = seconds(t_screen0, t_screen1);
  const double total_s = seconds(t_begin, t_end) - screen_s;

  nc::JsonWriter w;
  w.begin_object();
  w.key("workload").value(wl->name);
  w.key("seed").value(seed);
  w.key("scale").value(scale);
  w.key("trace").value(trace);
  w.key("skipped").value(false);
  w.key("build_type").value(E2E_BUILD_TYPE);
#ifdef NDEBUG
  w.key("ndebug").value(true);
#else
  w.key("ndebug").value(false);
#endif
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("n").value(static_cast<std::uint64_t>(g.n()));
  w.key("m").value(static_cast<std::uint64_t>(g.m()));
  w.key("threads").value(static_cast<std::uint64_t>(wl->threads));
  w.key("shards").value(static_cast<std::uint64_t>(shards));

  w.key("correct").value(failure.empty());
  w.key("failure").value(failure);
  w.key("aborted").value(aborted);
  w.key("label_hash").value(fnv1a(labels));
  w.key("planted").value(static_cast<std::uint64_t>(inst.planted.size()));
  w.key("cluster_size").value(best.size);
  w.key("recall").value(inst.planted.empty()
                            ? 0.0
                            : static_cast<double>(best.planted_hits) /
                                  static_cast<double>(inst.planted.size()));

  w.key("rounds").value(stats.rounds);
  w.key("messages").value(stats.messages);
  w.key("wire_bits").value(stats.bits);
  w.key("election_bits").value(bits_in(stats, 1, 5));
  w.key("gather_bits").value(bits_in(stats, 6, 10));
  w.key("explore_bits").value(bits_in(stats, 11, 15));
  w.key("decide_bits").value(bits_in(stats, 16, 17));
  w.key("control_bits").value(bits_in(stats, 30, 31));
  w.key("retransmissions").value(stats.messages_retransmitted);
  w.key("acks").value(stats.acks_sent);
  w.key("messages_lost").value(stats.messages_lost);
  w.key("local_ops").value(local_ops);
  w.key("candidates").value(static_cast<std::uint64_t>(candidates.size()));
  w.key("s_max").value(static_cast<std::uint64_t>(s_max));

  w.key("instance_s").value(instance_s);
  w.key("ctor_s").value(ctor_s);
  w.key("setup_s").value(seconds(t_begin, t_ctor1) - screen_s);
  w.key("solve_s").value(solve_s);
  w.key("extract_s").value(seconds(t_run, t_extract));
  w.key("destroy_s").value(seconds(t_extract, t_end));
  w.key("teardown_s").value(teardown_s);
  w.key("total_s").value(total_s);
  w.key("unattributed_s")
      .value(total_s - (instance_s + ctor_s + solve_s + teardown_s));
  w.key("oracle_s").value(seconds(t_oracle0, t_oracle1));
  w.key("peak_rss_kib").value(rss_kib);

  if (trace) {
    if (tel.spans_dropped != 0) {
      std::cerr << "e2e_run: trace dropped " << tel.spans_dropped
                << " spans; raise max_spans\n";
      return 3;
    }
    w.key("fused_s").value(prof.fused_seconds);
    w.key("stage_s").value(prof.stage_seconds);
    w.key("deliver_s").value(prof.deliver_seconds);
    w.key("wake_s").value(prof.wake_seconds);
    w.key("loop_other_s")
        .value(solve_s - (prof.fused_seconds + prof.stage_seconds +
                          prof.deliver_seconds + prof.wake_seconds));
    double barrier = 0.0;
    for (const char* phase : {"stage", "deliver", "wake"}) {
      const PhaseSplit split = phase_split(tel, phase, shards);
      w.key(std::string(phase) + "_imbalance").value(split.imbalance());
      barrier += split.barrier_wait();
    }
    w.key("barrier_wait_s").value(barrier);
    w.key("arena_bytes_total").value(prof.arena_bytes_total);
    w.key("arena_bytes_peak_shard").value(prof.arena_bytes_peak_shard);
    w.key("lane_msgs_peak").value(prof.lane_msgs_peak);
    w.key("bcast_bytes_saved").value(prof.broadcast_payload_bytes_saved);
    w.key("spans").value(static_cast<std::uint64_t>(tel.spans.size()));
  }
  w.end_object();
  std::cout << w.str() << '\n';
  return 0;
}
