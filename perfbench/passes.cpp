#include "passes.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>

#include "baselines/task_runtime.h"
#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/placement.h"
#include "cluster/traffic.h"
#include "common/check.h"
#include "common/stats.h"
#include "engine/session.h"
#include "harness/calibration.h"
#include "harness/experiment.h"
#include "obs/collector.h"
#include "sim/process.h"
#include "workloads/workload.h"

namespace pagoda::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// FNV-1a over the text of each simulated outcome, so a digest is stable
/// across compilers and independent of struct layout.
class Digest {
 public:
  void add(const char* fmt, auto... args) {
    char buf[256];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    PAGODA_CHECK(n > 0 && n < static_cast<int>(sizeof(buf)));
    for (int i = 0; i < n; ++i) {
      h_ = (h_ ^ static_cast<unsigned char>(buf[i])) * 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Bytes the allocator holds for the program (heap + mmapped chunks).
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

/// Simulated counters read from a per-run obs::Collector and summed.
constexpr std::array<const char*, 6> kSimCounters = {
    "pagoda.tasks_scheduled", "pagoda.warps_dispatched",
    "pagoda.entry_copies",    "pcie.h2d.transfers",
    "pcie.d2h.transfers",     "gpu.blocks_started"};

void add_sim_counters(PassResult& r, const obs::MetricsRegistry& m,
                      const std::string& prefix) {
  for (const char* name : kSimCounters) {
    r.counters[name] +=
        static_cast<double>(m.counter_value(prefix + name));
  }
}

/// generate() under its span, with the allocator delta when collecting.
void generate(workloads::Workload& w, const workloads::WorkloadConfig& cfg,
              const PassOptions& opt, PassResult& r) {
  const double before = opt.collect ? heap_in_use() : 0.0;
  {
    ScopedSpan s(opt.spans, "workloads.generate");
    w.generate(cfg);
  }
  if (opt.collect) {
    r.counters["workloads.heap_bytes"] += heap_in_use() - before;
  }
}

struct Fig5Runtime {
  std::string_view name;
  const char* span;
  const char* tasks_key;
};

constexpr std::array<Fig5Runtime, 5> kFig5Runtimes = {{
    {"Sequential", "baselines.sequential.run", "baselines.sequential.tasks"},
    {"PThreads", "baselines.pthreads.run", "baselines.pthreads.tasks"},
    {"HyperQ", "baselines.hyperq.run", "baselines.hyperq.tasks"},
    {"GeMTC", "baselines.gemtc.run", "baselines.gemtc.tasks"},
    {"Pagoda", "baselines.pagoda.run", "baselines.pagoda.tasks"},
}};

/// One cell: generate, run under `rt_name`, then verify() in Compute mode.
/// Returns the simulated elapsed time (0 when the cell failed).
sim::Duration run_cell(std::string_view wl, const Fig5Runtime& rt,
                       workloads::WorkloadConfig wcfg, const PassOptions& opt,
                       int cell, Digest& digest, PassResult& r) {
  const auto t0 = Clock::now();
  sim::Duration elapsed = 0;
  {
    ScopedSpan cs(opt.spans, "cell", cell);
    auto w = workloads::make_workload(wl);
    // GeMTC has no shared memory (paper §6.2), as harness::run_experiment
    // applies it for bench/fig5_overall.
    if (rt.name == "GeMTC") wcfg.use_shared_memory = false;
    generate(*w, wcfg, opt, r);

    auto runtime = baselines::make_runtime(rt.name);
    baselines::RunConfig rcfg = harness::paper_platform();
    rcfg.mode = wcfg.mode;
    std::optional<obs::Collector> collector;
    if (opt.collect) rcfg.collector = &collector.emplace();

    ++r.attempted;
    bool ok = runtime->supports(*w);
    baselines::RunResult res;
    if (ok) {
      ScopedSpan s(opt.spans, rt.span);
      res = runtime->run(*w, rcfg);
      ok = res.completed;
    }
    bool verified = true;
    if (ok && wcfg.mode == gpu::ExecMode::Compute) {
      ScopedSpan s(opt.spans, "workloads.verify");
      verified = w->verify();
      ok = verified;
    }
    if (!ok) ++r.failed;
    r.tasks += res.tasks;
    r.counters[rt.tasks_key] += static_cast<double>(res.tasks);
    if (opt.collect) add_sim_counters(r, collector->metrics(), "");
    digest.add("%.*s %.*s n=%d done=%d tasks=%" PRId64 " elapsed=%" PRId64
               " verified=%d\n",
               static_cast<int>(wl.size()), wl.data(),
               static_cast<int>(rt.name.size()), rt.name.data(), wcfg.num_tasks,
               res.completed ? 1 : 0, res.tasks, res.elapsed, verified ? 1 : 0);
    if (ok) elapsed = res.elapsed;
  }  // the workload, runtime and collector are freed inside the cell
  r.cell_ms.push_back(ms_since(t0));
  return elapsed;
}

workloads::WorkloadConfig base_config(int tasks, std::uint64_t seed,
                                      gpu::ExecMode mode) {
  workloads::WorkloadConfig w;
  w.num_tasks = tasks;
  w.threads_per_task = 128;  // the paper's Fig 5 setting
  w.seed = seed;
  w.mode = mode;
  return w;
}

PassResult fig5_model(const Scale& sc, const PassOptions& opt) {
  PassResult r;
  Digest digest;
  ScopedSpan pass(opt.spans, "pass");
  std::vector<double> vs_pthreads;
  std::vector<double> vs_hyperq;
  std::vector<double> vs_gemtc;
  int cell = 0;
  for (const std::string_view wl : workloads::all_workload_names()) {
    // Paper: SLUD runs 273K tasks against 32K for the rest; fig5_overall
    // scales it to 8x the bench size.
    const int tasks = wl == "SLUD" ? sc.fig5_tasks * 8 : sc.fig5_tasks;
    const workloads::WorkloadConfig wcfg =
        base_config(tasks, opt.seed, gpu::ExecMode::Model);
    std::array<double, kFig5Runtimes.size()> elapsed{};
    for (std::size_t i = 0; i < kFig5Runtimes.size(); ++i) {
      const Fig5Runtime& rt = kFig5Runtimes[i];
      if (rt.name != "Sequential") {
        ScopedSpan s(opt.spans, "harness.supports");
        if (!harness::runtime_supports(wl, rt.name, wcfg)) continue;
      }
      elapsed[i] = static_cast<double>(
          run_cell(wl, rt, wcfg, opt, cell++, digest, r));
    }
    const double pagoda = elapsed[4];
    if (pagoda <= 0) continue;
    if (elapsed[1] > 0) vs_pthreads.push_back(elapsed[1] / pagoda);
    if (elapsed[2] > 0) vs_hyperq.push_back(elapsed[2] / pagoda);
    if (elapsed[3] > 0) vs_gemtc.push_back(elapsed[3] / pagoda);
  }
  r.counters["fig5.speedup_vs_pthreads"] = geometric_mean(vs_pthreads);
  r.counters["fig5.speedup_vs_hyperq"] = geometric_mean(vs_hyperq);
  r.counters["fig5.speedup_vs_gemtc"] = geometric_mean(vs_gemtc);
  r.digest = digest.value();
  return r;
}

PassResult compute_verify(const Scale& sc, const PassOptions& opt) {
  // The workloads whose kernels read their generated inputs; MB, 3DES and
  // MPE are left out because their host math costs seconds per 256 tasks.
  constexpr std::array<std::string_view, 6> kNames = {"FB", "BF",  "CONV",
                                                      "DCT", "MM", "SLUD"};
  PassResult r;
  Digest digest;
  ScopedSpan pass(opt.spans, "pass");
  int cell = 0;
  for (const std::string_view wl : kNames) {
    run_cell(wl, kFig5Runtimes[4],
             base_config(sc.compute_tasks, opt.seed, gpu::ExecMode::Compute),
             opt, cell++, digest, r);
  }
  r.digest = digest.value();
  return r;
}

// --- fleet_open --------------------------------------------------------------

/// Open-loop offered load per node. The 5% heavy tail makes the mean demand
/// 1.75x the nominal request; at this rate a node's backlog stays bounded.
constexpr double kFleetRatePerNode = 100.0e3;
/// Host-time sample window ("cell") in simulated time.
constexpr sim::Duration kFleetWindow = sim::microseconds(20.0);

cluster::RequestProfile fleet_profile() {
  cluster::RequestProfile p;
  p.heavy_fraction = 0.05;
  p.slo = sim::microseconds(100.0);
  return p;
}

struct Fleet {
  static engine::SessionConfig clock_only() {
    engine::SessionConfig c;
    c.device = false;  // GpuNodes bring up their own device sessions
    return c;
  }
  engine::Session session;
  sim::Simulation& sim = session.sim();
  cluster::Cluster fleet;
  cluster::Dispatcher disp;
  sim::Time end_time = 0;
  bool done = false;

  explicit Fleet(int nodes)
      : session(clock_only()),
        fleet(sim, cluster::Cluster::homogeneous(nodes)),
        disp(fleet, cluster::make_policy("least-loaded"),
             cluster::DispatcherConfig{}) {}
};

sim::Process fleet_source(Fleet& f, int requests, std::uint64_t seed,
                          SpanRecorder* spans) {
  cluster::ArrivalConfig acfg;
  acfg.kind = cluster::ArrivalKind::Poisson;
  acfg.rate_per_sec = kFleetRatePerNode * f.fleet.size();
  cluster::ArrivalSequence arrivals(acfg, seed);
  const cluster::RequestProfile profile = fleet_profile();
  for (int i = 0; i < requests; ++i) {
    const sim::Duration gap = arrivals.next_gap();
    if (gap > 0) co_await f.sim.delay(gap);
    cluster::Request req = cluster::synth_request(profile, seed, i);
    ScopedSpan s(spans, "cluster.offer");
    f.disp.offer(std::move(req));
  }
  f.disp.close();
}

sim::Process fleet_drainer(Fleet& f) {
  co_await f.disp.drain();
  f.end_time = f.sim.now();
  f.done = true;
}

std::string node_prefix(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "dev%02d.", i);
  return buf;
}

PassResult fleet_open(const Scale& sc, const PassOptions& opt) {
  PassResult r;
  ScopedSpan pass(opt.spans, "pass");
  const int requests = sc.fleet_nodes * sc.fleet_requests_per_node;
  obs::Collector collector;  // declared first: outlives the sessions
  std::unique_ptr<Fleet> f;
  {
    ScopedSpan s(opt.spans, "engine.session_build");
    f = std::make_unique<Fleet>(sc.fleet_nodes);
    if (opt.collect) {
      for (int i = 0; i < f->fleet.size(); ++i) {
        f->fleet.node(i).session().attach_collector(collector, node_prefix(i));
      }
      f->disp.install_sampler(collector);
    }
    f->fleet.start();
    f->sim.spawn(fleet_source(*f, requests, opt.seed, opt.spans));
    f->sim.spawn(fleet_drainer(*f));
  }

  // fleet_scale's cap: far beyond any drain time at this load.
  const sim::Time cap = sim::seconds(120.0);
  std::int64_t events = 0;
  if (opt.run_until) {
    f->sim.run_until(cap);
  } else {
    // Stepped so events can be counted and host time sampled per window of
    // simulated time; the remainder after the drain runs as fleet_scale's
    // run_until would.
    sim::Time window_end = kFleetWindow;
    std::vector<int> in_flight;  // at each window edge
    for (int window = 0; !f->done; ++window) {
      const auto t0 = Clock::now();
      {
        // One span per window over its run of step() calls: a span per
        // event would cost more than the event.
        ScopedSpan s(opt.spans, "sim.step", window);
        while (!f->done && f->sim.now() < window_end && f->sim.step()) {
          ++events;
        }
      }
      if (f->sim.now() < window_end) break;  // drained or queue empty
      r.cell_ms.push_back(ms_since(t0));
      in_flight.push_back(f->disp.in_flight());
      while (window_end <= f->sim.now()) window_end += kFleetWindow;
    }
    // Open-loop sanity, reported: a growing backlog would show as a higher
    // in-flight peak over the second half of the windows than the first.
    const auto half =
        in_flight.begin() + static_cast<std::ptrdiff_t>(in_flight.size() / 2);
    r.counters["cluster.in_flight_peak_first_half"] =
        in_flight.empty() ? 0 : *std::max_element(in_flight.begin(), half);
    r.counters["cluster.in_flight_peak_second_half"] =
        in_flight.empty() ? 0 : *std::max_element(half, in_flight.end());
    ScopedSpan s(opt.spans, "sim.run_until");
    f->sim.run_until(cap);
  }

  const cluster::Dispatcher::Stats& st = f->disp.stats();
  r.attempted = requests;
  r.tasks = st.completed;
  const bool ledger = st.offered == requests &&
                      st.offered == st.admitted + st.dropped &&
                      st.slot_releases == st.completed + st.shed &&
                      st.slot_releases == st.admitted;
  if (!f->done || !ledger) r.failed = requests;

  const std::span<const double> lat = f->disp.latencies_us();
  const double p50 = percentile(lat, 50);
  const double p99 = percentile(lat, 99);
  Digest digest;
  digest.add("fleet nodes=%d requests=%d done=%d end=%" PRId64 "\n",
             sc.fleet_nodes, requests, f->done ? 1 : 0, f->end_time);
  digest.add("completed=%" PRId64 " shed=%" PRId64 " dropped=%" PRId64
             " slo_violations=%" PRId64 " slo_late=%" PRId64 "\n",
             st.completed, st.shed, st.dropped, st.slo_violations,
             st.slo_late);
  digest.add("latency_us p50=%.17g p99=%.17g p999=%.17g\n", p50, p99,
             percentile(lat, 99.9));
  for (int i = 0; i < f->fleet.size(); ++i) {
    digest.add("node %d completed=%" PRId64 "\n", i,
               f->fleet.node(i).completed());
  }
  r.digest = digest.value();

  if (!opt.run_until) r.counters["sim.events"] = static_cast<double>(events);
  r.counters["cluster.completed"] = static_cast<double>(st.completed);
  r.counters["cluster.shed"] = static_cast<double>(st.shed);
  r.counters["cluster.dropped"] = static_cast<double>(st.dropped);
  r.counters["cluster.slo_violations"] =
      static_cast<double>(st.slo_violations);
  r.counters["cluster.latency_p50_us"] = p50;
  r.counters["cluster.latency_p99_us"] = p99;
  if (opt.collect) {
    collector.finish(f->end_time, st.completed);
    for (int i = 0; i < f->fleet.size(); ++i) {
      add_sim_counters(r, collector.metrics(), node_prefix(i));
    }
  }
  f->fleet.shutdown();
  return r;
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId id : {WorkloadId::kFig5Model, WorkloadId::kFleetOpen,
                              WorkloadId::kComputeVerify}) {
    if (workload_name(id) == name) return id;
  }
  return std::nullopt;
}

std::string_view workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kFig5Model:
      return "fig5_model";
    case WorkloadId::kFleetOpen:
      return "fleet_open";
    case WorkloadId::kComputeVerify:
      return "compute_verify";
  }
  return "";
}

PassResult run_pass(WorkloadId id, const Scale& scale, const PassOptions& opt) {
  switch (id) {
    case WorkloadId::kFig5Model:
      return fig5_model(scale, opt);
    case WorkloadId::kFleetOpen:
      return fleet_open(scale, opt);
    case WorkloadId::kComputeVerify:
      return compute_verify(scale, opt);
  }
  PAGODA_CHECK_MSG(false, "unknown workload");
  return {};
}

}  // namespace pagoda::perfbench
