// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--offered-tps <tps>]
//
// --trace 0 repeats the untraced workload run until --seconds of wall time
// are spent, cycling through the workload's seeds, and reports the
// end-to-end metrics: wall-clock medians over the repetitions after a
// warm-up, and simulated-clock metrics pooled over the seeds (a repeated
// seed must reproduce them exactly, which is checked). --trace 1 runs the
// workload untraced, traced in simulated windows and untraced again, then
// the layer drivers, and reports the per-layer metrics; the traced run's
// spans go to --trace-out. Every run is audited.
// --offered-tps overrides the workload's rate, to reproduce the overload
// defect README.md describes; the benchmark itself never passes it.
// The last line of stdout is the result object perfbench/run.py relays.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace qanaat {
namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  double offered_tps = 0;  // 0 = the workload's own rate
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v);
    else if (k == "--trace-out") a->trace_out = v;
    else if (k == "--offered-tps") a->offered_tps = std::atof(v);
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PerTx(uint64_t count, const SimOutcome& s) {
  return s.settled ? static_cast<double>(count) / s.settled : 0;
}

uint64_t Counter(const SimOutcome& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

uint64_t CounterPrefixSum(const SimOutcome& s, const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += value;
  }
  return sum;
}

/// Issued transactions not settled by the end of the drain, or all of them
/// when the run's audit failed.
uint64_t Unsettled(const RunResult& r) {
  return r.audit_error.empty() ? r.sim.issued - r.sim.settled : r.sim.issued;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Account(const RunResult& r) {
    attempted += r.sim.issued;
    failed += Unsettled(r);
    if (!r.audit_error.empty()) {
      correct = false;
      std::printf("AUDIT FAILED: %s\n", r.audit_error.c_str());
    }
  }
};

void PrintRun(const char* label, const RunResult& r) {
  std::printf(
      "%s: setup %.3fs wall %.3fs (normalised %.3fs) audit %.3fs | issued "
      "%llu settled %llu p50 %.3fms p99 %.3fms (n=%llu) goodput %.1f tps | "
      "%llu msgs %llu events\n",
      label, r.setup_s, r.wall_s, NormalizedWall(r), r.audit_s,
      static_cast<unsigned long long>(r.sim.issued),
      static_cast<unsigned long long>(r.sim.settled), r.sim.p50_ms,
      r.sim.p99_ms, static_cast<unsigned long long>(r.sim.latencies.count()),
      r.sim.goodput_tps, static_cast<unsigned long long>(r.sim.messages),
      static_cast<unsigned long long>(r.sim.events));
}

Outcome EndToEnd(const Workload& w, const Args& a) {
  Outcome out;
  // Repetition i runs seed SubSeed(a.seed, i % w.seeds). The first
  // w.seeds repetitions give the simulated-clock metrics; later ones must
  // reproduce them bit for bit. The first repetition also grows the heap
  // to the run's working set, so its times are not kept.
  std::vector<RunResult> pooled;
  std::vector<double> walls;
  auto start = Clock::now();
  for (int i = 0;; ++i) {
    const int j = i % w.seeds;
    RunResult r = RunWorkload(w, SubSeed(a.seed, j), nullptr);
    PrintRun(i == 0 ? "warm-up" : "run", r);
    out.Account(r);
    if (i < w.seeds) {
      pooled.push_back(r);
    } else if (!(r.sim == pooled[j].sim)) {
      out.correct = false;
      std::printf("NONDETERMINISM: repetition %d differs from the first run "
                  "of its seed\n", i + 1);
    }
    if (i > 0) walls.push_back(NormalizedWall(r));
    if (i + 1 >= w.seeds && walls.size() >= 3 &&
        SecondsSince(start) >= a.seconds) {
      break;
    }
  }
  // Set-up takes milliseconds, too short to span many calibration steps:
  // alternate builds with steps and scale the median build by the median
  // step.
  std::vector<double> setups, steps;
  for (int i = 0; i < 61; ++i) {
    setups.push_back(TimeSetup(w, a.seed));
    steps.push_back(CalibrationStep());
  }

  Histogram latencies;
  double goodput = 0;
  for (const RunResult& r : pooled) {
    latencies.Merge(r.sim.latencies);
    goodput += r.sim.goodput_tps / static_cast<double>(pooled.size());
  }
  out.metrics = {
      {"setup_s", Median(setups) * kCalibrationRefStepS / Median(steps), "s"},
      {"wall_s", Median(walls), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"commit_p50_ms", QuantileMs(latencies, 0.50), "ms"},
      {"commit_p99_ms", QuantileMs(latencies, 0.99), "ms"},
      {"goodput_tps", goodput, "tx/s"},
  };
  std::printf("%zu repetitions over %d seeds; pooled latency samples %llu\n",
              walls.size() + 1, w.seeds,
              static_cast<unsigned long long>(latencies.count()));
  return out;
}

void WriteTrace(const Tracer& t, uint64_t seed, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not write trace %s\n", path.c_str());
    return;
  }
  auto counts = [f](const std::map<std::string, uint64_t>& m) {
    std::fputc('{', f);
    bool first = true;
    for (const auto& [k, v] : m) {
      std::fprintf(f, "%s\"%s\":%llu", first ? "" : ",", k.c_str(),
                   static_cast<unsigned long long>(v));
      first = false;
    }
    std::fputc('}', f);
  };
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[\n",
               t.workload().c_str(), static_cast<unsigned long long>(seed));
  // 250 ms reporting slices aggregate the 5 ms window spans.
  constexpr SimTime kSlice = 250 * kMillisecond;
  std::map<SimTime, Span> slices;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"workload\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"sim_start_us\":%lld,"
                 "\"sim_end_us\":%lld,\"counts\":",
                 s.id, s.parent, s.name.c_str(), t.workload().c_str(),
                 s.wall_start_s, s.wall_end_s,
                 static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end));
    counts(s.counts);
    std::fprintf(f, "}%s\n", i + 1 < t.spans().size() ? "," : "");
    if (s.name != "sim.window") continue;
    Span& agg = slices[s.sim_start / kSlice];
    agg.wall_end_s += s.wall_end_s - s.wall_start_s;
    for (const auto& [k, v] : s.counts) agg.counts[k] += v;
  }
  std::fprintf(f, "],\"slices_250ms\":[\n");
  size_t i = 0;
  for (const auto& [index, agg] : slices) {
    std::fprintf(f, "{\"sim_start_us\":%lld,\"wall_s\":%.9f,\"counts\":",
                 static_cast<long long>(index * kSlice), agg.wall_end_s);
    counts(agg.counts);
    std::fprintf(f, "}%s\n", ++i < slices.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("slice wall (s per 250 ms):");
  for (const auto& [index, agg] : slices) std::printf(" %.3f", agg.wall_end_s);
  std::printf("\n");
}

Outcome PerLayer(const Workload& w, const Args& a) {
  Outcome out;
  // Untraced, traced, untraced again: the first run also grows the heap,
  // so tracing overhead compares the traced run with the second.
  RunResult warm = RunWorkload(w, a.seed, nullptr);
  PrintRun("warm-up", warm);
  out.Account(warm);
  Tracer tracer(w.name);
  RunResult traced = RunWorkload(w, a.seed, &tracer);
  PrintRun("traced", traced);
  out.Account(traced);
  RunResult plain = RunWorkload(w, a.seed, nullptr);
  PrintRun("untraced", plain);
  out.Account(plain);
  if (!(traced.sim == warm.sim) || !(plain.sim == warm.sim)) {
    out.correct = false;
    std::printf("NONDETERMINISM: the traced run differs from the untraced\n");
  }
  uint64_t driver_failures = 0;
  std::map<std::string, double> drv =
      RunDrivers(w, a.seed, &tracer, &driver_failures);
  if (driver_failures > 0) {
    out.correct = false;
    std::printf("LAYER DRIVERS: %llu calls returned a wrong answer\n",
                static_cast<unsigned long long>(driver_failures));
  }
  if (!a.trace_out.empty()) WriteTrace(tracer, a.seed, a.trace_out);

  const SimOutcome& s = plain.sim;
  const double sim_s = static_cast<double>(kRunEnd) / kSecond;
  uint64_t closes = Counter(s, "batch.closed_size") +
                    Counter(s, "batch.closed_timeout") +
                    Counter(s, "batch.closed_flush");
  out.metrics = {
      {"sim.events_per_tx", PerTx(s.events, s), "event/tx"},
      {"sim.wall_per_sim_s", NormalizedWall(plain) / sim_s, "s/s"},
      {"sim.slice_drift", traced.slice_drift, "ratio"},
      {"net.msgs_per_tx", PerTx(s.messages, s), "msg/tx"},
      {"net.bytes_per_tx", PerTx(s.bytes, s), "B/tx"},
      {"pbft.view_changes",
       static_cast<double>(Counter(s, "pbft.view_change_started")), "count"},
      {"paxos.takeovers",
       static_cast<double>(Counter(s, "paxos.leader_takeover")), "count"},
      {"batch.txs_mean", s.batch_txs_mean, "tx"},
      {"batch.timeout_close_frac",
       closes ? static_cast<double>(Counter(s, "batch.closed_timeout")) /
                    closes
              : 0,
       "fraction"},
      {"cross.redrive_per_tx",
       PerTx(Counter(s, "cross.retry") + Counter(s, "cross.timeout") +
                 Counter(s, "cross.redrive"),
             s),
       "1/tx"},
      {"cross.deferred_conflict_per_tx",
       PerTx(Counter(s, "cross.deferred_conflict"), s), "1/tx"},
      {"order.duplicate_request_per_tx",
       PerTx(Counter(s, "order.duplicate_request"), s), "1/tx"},
      {"order.intake_gated",
       static_cast<double>(Counter(s, "order.intake_gated")), "count"},
      {"exec.txs_per_block",
       s.exec_blocks ? static_cast<double>(s.exec_txs) / s.exec_blocks : 0,
       "tx/block"},
      {"exec.deferred_per_block",
       s.exec_blocks
           ? static_cast<double>(Counter(s, "exec.deferred")) / s.exec_blocks
           : 0,
       "1/block"},
      {"firewall.filtered",
       static_cast<double>(CounterPrefixSum(s, "firewall.filtered_")),
       "count"},
      {"client.retransmits_per_tx", PerTx(Counter(s, "client.retransmit"), s),
       "1/tx"},
      {"client.commit_samples", static_cast<double>(s.latencies.count()),
       "count"},
      {"ckpt.stable", static_cast<double>(Counter(s, "ckpt.stable")),
       "count"},
      {"recovery.state_blocks_served",
       static_cast<double>(Counter(s, "order.state_blocks_served") +
                           Counter(s, "exec.state_blocks_served")),
       "count"},
      {"ckpt.installed_via_transfer",
       static_cast<double>(Counter(s, "ckpt.installed_via_transfer")),
       "count"},
      {"failed_frac",
       static_cast<double>(Unsettled(plain)) / static_cast<double>(s.issued),
       "fraction"},
      {"outage_ms", traced.outage_ms, "ms"},
      {"audit_s", plain.audit_s, "s"},
      {"trace_overhead_frac",
       NormalizedWall(traced) / NormalizedWall(plain) - 1, "fraction"},
      {"calibration.step_ms",
       1e3 * plain.calibration_s / std::max(plain.calibration_steps, 1),
       "ms"},
  };
  for (const auto& [name, value] : drv) {
    out.metrics.push_back({name, value, "ns"});
  }
  return out;
}

}  // namespace
}  // namespace perfbench
}  // namespace qanaat

int main(int argc, char** argv) {
  using namespace qanaat::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--offered-tps <tps>]\n");
    return 2;
  }
  const Workload* found = FindWorkload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  Workload w = *found;
  if (a.offered_tps > 0) w.offered_tps = a.offered_tps;
  std::printf("workload %s seed %llu trace %d offered %.0f tps\n", w.name,
              static_cast<unsigned long long>(a.seed), a.trace,
              w.offered_tps);
  Outcome out = a.trace ? PerLayer(w, a) : EndToEnd(w, a);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  return 0;
}
