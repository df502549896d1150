// hostbench — the host cost of the Pagoda simulator, per workload.
//
//   hostbench --workload=fig5_model|fleet_open|compute_verify --seed=N
//             --seconds=S [--trace] [--digests=FILE] [--spans-out=FILE]
//             [--setup-only] [--print-digest]
//
// A run is: one untimed set-up pass (cold allocator and caches; "READY" is
// printed when it ends), then timed passes until S seconds have passed and
// enough samples exist, then the report. Without --trace the timed passes
// are untraced and the report holds the end-to-end metrics. With --trace,
// untraced and traced passes alternate (their difference is the tracing
// overhead), one more pass attaches an obs::Collector for the simulated
// counters, and the report holds the per-layer metrics. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Every pass's simulated-outcome digest must equal the committed digest for
// (workload, seed) when --digests lists one, else the set-up pass's digest;
// a mismatching pass counts all its ops as failed.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_tuning.h"
#include "common/stats.h"
#include "harness/flags.h"
#include "passes.h"
#include "report.h"
#include "spans.h"

using namespace pagoda;
using namespace pagoda::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Committed digest for (workload, seed) from lines "workload seed hex";
/// '#' starts a comment. Returns false when the file has no such line.
bool committed_digest(const std::string& path, std::string_view workload,
                      std::uint64_t seed, std::uint64_t& out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string wl;
    std::uint64_t s = 0;
    std::string hex;
    if (!(fields >> wl >> s >> hex)) continue;
    if (wl == workload && s == seed) {
      out = std::stoull(hex, nullptr, 16);
      return true;
    }
  }
  return false;
}

struct Tally {
  std::uint64_t reference = 0;
  std::int64_t passes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t digest_mismatches = 0;

  void add(const PassResult& p) {
    ++passes;
    attempted += p.attempted;
    if (p.digest != reference) {
      ++digest_mismatches;
      failed += p.attempted;
    } else {
      failed += p.failed;
    }
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Median over traced passes of one span name's self time, in ns.
double median_self(const std::vector<std::map<std::string, double>>& passes,
                   const std::string& name) {
  std::vector<double> v;
  for (const auto& m : passes) {
    const auto it = m.find(name);
    v.push_back(it == m.end() ? 0.0 : it->second);
  }
  return median(v);
}

double counter(const PassResult& p, const std::string& name) {
  const auto it = p.counters.find(name);
  return it == p.counters.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_fig5_speedups(const PassResult& p, int tasks) {
  struct Row {
    const char* vs;
    const char* key;
    double paper;
  };
  const Row rows[] = {{"PThreads", "fig5.speedup_vs_pthreads", 5.70},
                      {"HyperQ", "fig5.speedup_vs_hyperq", 1.51},
                      {"GeMTC", "fig5.speedup_vs_gemtc", 1.69}};
  std::printf(
      "Pagoda geometric-mean speedups (simulated, %d tasks per workload; the "
      "model is checked only against these three paper figures):\n",
      tasks);
  for (const Row& r : rows) {
    const double model = counter(p, r.key);
    std::printf("  over %-8s %.2fx  paper %.2fx  error %+.1f%%\n", r.vs,
                model, r.paper, (model / r.paper - 1.0) * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Flags flags(argc, argv);
  const std::string bad =
      flags.unknown({"workload", "seed", "seconds", "trace", "digests",
                     "spans-out", "setup-only", "print-digest"});
  if (!bad.empty()) {
    std::fprintf(stderr, "error: unknown argument '%s'\n", bad.c_str());
    return 2;
  }
  const std::string wl_name = flags.get("workload");
  const std::optional<WorkloadId> id = parse_workload(wl_name);
  if (!id) {
    std::fprintf(stderr,
                 "error: --workload must be fig5_model, fleet_open or "
                 "compute_verify (got '%s')\n",
                 wl_name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.has("trace");
  if (seconds <= 0) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }
  // The Model/Compute matrices tune the allocator as every bench built on
  // bench/bench_common.h does; fleet_open mirrors bench/fleet_scale, which
  // does not.
  if (*id != WorkloadId::kFleetOpen) common::tune_allocator_for_batch_runs();
  const Scale scale;

  // Set-up: one untimed pass on a cold allocator. fleet_open runs it through
  // Simulation::run_until, as bench/fleet_scale does, so every run
  // cross-checks the stepped loop of the timed passes against that path.
  PassOptions setup_opt;
  setup_opt.seed = seed;
  setup_opt.run_until = *id == WorkloadId::kFleetOpen;
  const PassResult setup = run_pass(*id, scale, setup_opt);
  std::printf("READY\n");
  std::fflush(stdout);
  if (flags.has("setup-only")) return 0;
  if (flags.has("print-digest")) {
    std::printf("%s %" PRIu64 " %016" PRIx64 "\n", wl_name.c_str(), seed,
                setup.digest);
    return 0;
  }

  Tally tally;
  const std::string digests = flags.get("digests");
  const bool committed =
      !digests.empty() &&
      committed_digest(digests, wl_name, seed, tally.reference);
  if (!committed) tally.reference = setup.digest;
  tally.add(setup);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> cell_ms;
  std::vector<std::map<std::string, double>> traced_self;
  PassResult first;  // the first timed untraced pass
  SpanRecorder spans;
  const auto loop_start = Clock::now();
  for (bool traced_turn = false;; traced_turn = !traced_turn) {
    const bool enough_samples =
        trace ? traced_s.size() >= kMinPasses
              : highest_reportable_percentile(cell_ms.size()) >= 90.0;
    if (seconds_since(loop_start) >= seconds &&
        untraced_s.size() >= kMinPasses && enough_samples) {
      break;
    }
    const bool traced = trace && traced_turn;
    PassOptions opt;
    opt.seed = seed;
    if (traced) {
      spans.clear();
      opt.spans = &spans;
    }
    const auto t0 = Clock::now();
    PassResult p = run_pass(*id, scale, opt);
    const double dt = seconds_since(t0);
    tally.add(p);
    if (traced) {
      traced_s.push_back(dt);
      traced_self.push_back(self_time_ns(spans.spans()));
      continue;
    }
    untraced_s.push_back(dt);
    cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
    if (untraced_s.size() == 1) first = std::move(p);
  }

  PassResult counted;
  if (trace) {
    PassOptions opt;
    opt.seed = seed;
    opt.collect = true;
    counted = run_pass(*id, scale, opt);
    tally.add(counted);
    const std::string out = flags.get("spans-out");
    if (!out.empty()) {
      std::ofstream f(out);
      write_spans_jsonl(f, spans.spans());
      if (!f) {
        std::fprintf(stderr, "error: cannot write spans to %s\n", out.c_str());
        return 1;
      }
    }
  }

  // --- report ----------------------------------------------------------------
  const double pass_s = median(untraced_s);
  std::printf("workload %s, seed %" PRIu64 ": %zu untraced passes%s\n",
              wl_name.c_str(), seed, untraced_s.size(),
              trace ? (", " + std::to_string(traced_s.size()) +
                       " traced passes, 1 counting pass")
                          .c_str()
                    : "");
  std::printf("digest %016" PRIx64 ", expected %016" PRIx64 " %s; %" PRId64
              " of %" PRId64 " passes mismatched\n",
              setup.digest, tally.reference,
              committed ? "(committed for this seed)"
                        : "(no committed digest for this seed: checked for "
                          "run-to-run identity only)",
              tally.digest_mismatches, tally.passes);
  std::printf("fail_rate %.6g (%" PRId64 " of %" PRId64 " ops failed)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              tally.failed, tally.attempted);
  if (*id == WorkloadId::kFig5Model) {
    print_fig5_speedups(first, scale.fig5_tasks);
  }
  if (*id == WorkloadId::kFleetOpen) {
    std::printf("open loop: requests in flight peak at %g over the first half "
                "of the windows, %g over the second (no growing backlog)\n",
                counter(first, "cluster.in_flight_peak_first_half"),
                counter(first, "cluster.in_flight_peak_second_half"));
  }

  std::printf("untraced pass seconds:");
  for (const double t : untraced_s) std::printf(" %.4f", t);
  std::printf("\n");

  std::vector<Metric> rep;  // in report order
  const auto add = [&rep](std::string name, double value, const char* unit) {
    rep.push_back({std::move(name), value, unit});
  };
  if (!trace) {
    const double top = highest_reportable_percentile(cell_ms.size());
    std::printf("cells: %zu samples; highest reportable percentile p%g = %.4g "
                "ms\n",
                cell_ms.size(), top, percentile(cell_ms, top));
    add("tasks_per_s", static_cast<double>(first.tasks) / pass_s, "1/s");
    add("pass_s", pass_s, "s");
    add("cell_ms_p50", percentile(cell_ms, 50), "ms");
    add("cell_ms_p90", percentile(cell_ms, 90), "ms");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::set<std::string> names;
    for (const auto& m : traced_self) {
      for (const auto& kv : m) names.insert(kv.first);
    }
    std::printf("self time per traced pass, median (ms):\n");
    for (const std::string& n : names) {
      std::printf("  %-34s %.6g\n", n.c_str(),
                  median_self(traced_self, n) / 1e6);
    }
    const auto ms = [&](const char* span) {
      return median_self(traced_self, span) / 1e6;
    };
    add("workloads.generate_ms", ms("workloads.generate"), "ms");
    add("workloads.heap_mb",
            counter(counted, "workloads.heap_bytes") / (1024.0 * 1024.0), "MB");
    add("workloads.verify_ms", ms("workloads.verify"), "ms");
    add("harness.supports_ms", ms("harness.supports"), "ms");
    for (const char* rt :
         {"sequential", "pthreads", "hyperq", "gemtc", "pagoda"}) {
      const std::string base = std::string("baselines.") + rt;
      const double run_ms = ms((base + ".run").c_str());
      const double tasks = counter(first, base + ".tasks");
      add(base + ".run_ms", run_ms, "ms");
      add(base + ".us_per_task", tasks > 0 ? run_ms * 1e3 / tasks : 0.0,
              "us");
    }
    const double events = counter(first, "sim.events");
    add("sim.events", events, "count");
    add("sim.events_per_request",
            events > 0 ? events / static_cast<double>(first.attempted) : 0.0,
            "count");
    add("sim.ns_per_event",
            events > 0 ? median_self(traced_self, "sim.step") / events : 0.0,
            "ns");
    add("engine.session_build_ms", ms("engine.session_build"), "ms");
    add("cluster.offer_us",
            events > 0 ? median_self(traced_self, "cluster.offer") / 1e3 /
                             static_cast<double>(first.attempted)
                       : 0.0,
            "us");
    add("obs.trace_overhead_pct",
            (median(traced_s) / pass_s - 1.0) * 100.0, "%");
    add("unattributed_ms", ms("pass") + ms("cell"), "ms");
    for (const char* c :
         {"pagoda.tasks_scheduled", "pagoda.warps_dispatched",
          "pagoda.entry_copies", "pcie.h2d.transfers", "pcie.d2h.transfers",
          "gpu.blocks_started"}) {
      add(c, counter(counted, c), "count");
    }
    for (const char* c : {"cluster.completed", "cluster.shed",
                          "cluster.dropped", "cluster.slo_violations"}) {
      add(c, counter(first, c), "count");
    }
    add("cluster.latency_p50_us", counter(first, "cluster.latency_p50_us"),
            "us");
    add("cluster.latency_p99_us", counter(first, "cluster.latency_p99_us"),
            "us");
  }
  for (const Metric& m : rep) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < rep.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rep[i].name.c_str(), rep[i].value,
                rep[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
