// The benchmark's three workloads, each as one "pass": a self-contained,
// single-threaded run through the simulator's public entry points that
// returns the host-time samples, the simulated outcome digest and the
// deterministic counters the report needs.
//
//   fig5_model     — the Figure 5 matrix (9 workloads x Sequential, PThreads,
//                    HyperQ, GeMTC, Pagoda) in Model mode, as
//                    bench/fig5_overall runs it, generation included.
//   fleet_open     — a 64-node Titan X fleet under open-loop Poisson
//                    synth_request traffic, stepped event by event.
//   compute_verify — Pagoda in Compute mode on the workloads that read their
//                    inputs, every cell verified against the CPU reference.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace pagoda::perfbench {

enum class WorkloadId { kFig5Model, kFleetOpen, kComputeVerify };

std::optional<WorkloadId> parse_workload(std::string_view name);
std::string_view workload_name(WorkloadId id);

/// Problem sizes. The benchmark always runs the defaults; tests shrink them.
struct Scale {
  int fig5_tasks = 512;           // per workload; SLUD runs 8x, as in Fig 5
  int compute_tasks = 32;         // per compute_verify cell
  int fleet_nodes = 64;
  int fleet_requests_per_node = 128;
};

struct PassOptions {
  std::uint64_t seed = 1;
  /// Records layer spans when set (the traced pass); null = untraced.
  SpanRecorder* spans = nullptr;
  /// Attaches an obs::Collector to every run and fills the simulated
  /// counters (pagoda.*, pcie.*, gpu.*), and measures workloads.heap_bytes
  /// (mallinfo2 deltas across generate). Passive: the digest must not move.
  bool collect = false;
  /// fleet_open only: drive the simulation with Simulation::run_until, as
  /// bench/fleet_scale does, instead of stepping it (the digest cross-check).
  bool run_until = false;
};

struct PassResult {
  std::uint64_t digest = 0;     // over simulated outcomes only
  std::int64_t attempted = 0;   // ops: cells, or requests for fleet_open
  std::int64_t failed = 0;      // incomplete, unverified or unbalanced ops
  std::int64_t tasks = 0;       // simulated tasks (requests) completed
  std::vector<double> cell_ms;  // host ms per cell (fleet: per window)
  /// Deterministic counts: simulated counters, sim.events, heap bytes, and
  /// the fig5 geometric-mean speedups.
  std::map<std::string, double> counters;
};

PassResult run_pass(WorkloadId id, const Scale& scale, const PassOptions& opt);

}  // namespace pagoda::perfbench
