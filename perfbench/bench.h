#ifndef QANAAT_PERFBENCH_BENCH_H_
#define QANAAT_PERFBENCH_BENCH_H_

// The repository benchmark: three open-loop SmallBank workloads driven
// through QanaatSystem (workloads.cc), per-layer drivers that time calls
// into each module's public functions (drivers.cc), and the command line
// that runs them and prints the result (main.cc). README.md says why each
// workload exists and which layer metric should move which end-to-end
// metric.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "protocols/context.h"
#include "qanaat/system.h"
#include "workload/smallbank.h"

namespace qanaat {
namespace perfbench {

/// One named workload: a §5 protocol series at a fixed offered load.
struct Workload {
  const char* name;
  FailureModel failure_model;
  ProtocolFamily family;
  bool firewall;
  CrossKind cross_kind;
  double cross_fraction;
  double zipf_s;
  double offered_tps;
  /// Crash ordering node 0 of every cluster at kCrashAt and recover it at
  /// kRecoverAt.
  bool failover;
  /// End-to-end runs pool the simulated-clock metrics of this many seeds
  /// (SubSeed(seed, 0..seeds-1)). paxos-failover pools the most: when each
  /// takeover completes moves its unsettled share and tail from seed to
  /// seed far more than the fault-free workloads move.
  int seeds;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);
WorkloadParams ParamsOf(const Workload& w);
/// The j-th seed a run with --seed `seed` uses; SubSeed(seed, 0) == seed.
uint64_t SubSeed(uint64_t seed, int j);
/// The deployment every workload runs on: 4 enterprises x 4 shards,
/// f = g = h = 1, with the workload's failure model, family and firewall.
QanaatSystem::Options OptionsOf(const Workload& w, uint64_t seed);

// Simulated schedule shared by every workload: clients issue in
// [0, kIssueEnd), latency and goodput count settles inside
// [kMeasureFrom, kIssueEnd), and the run drains until kRunEnd.
constexpr SimTime kMeasureFrom = 400 * kMillisecond;
constexpr SimTime kIssueEnd = 3 * kSecond;
constexpr SimTime kRunEnd = kIssueEnd + 500 * kMillisecond;
constexpr SimTime kCrashAt = 1500 * kMillisecond;
constexpr SimTime kRecoverAt = 1800 * kMillisecond;
constexpr int kClientMachines = 4;
constexpr SimTime kClientRetransmit = 250 * kMillisecond;
/// Traced runs advance the simulator in windows of this length.
constexpr SimTime kTraceWindow = 5 * kMillisecond;
/// Every run pauses for one calibration step after each span of this much
/// wall time inside Simulator::Run.
constexpr double kCalibrationPeriodS = 0.025;
/// Normalised wall times read in seconds of a reference machine on which
/// one calibration step takes this long. (The shared 4-vCPU VM the
/// benchmark was built on measured 1.2-2.6 ms per step, depending on load.)
constexpr double kCalibrationRefStepS = 2.5e-3;

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A p-quantile of a latency histogram in milliseconds, interpolated
/// linearly inside its bucket. Histogram::Percentile returns a bucket's
/// low edge and buckets are 12.5% wide, so the raw value jumps between
/// neighbouring seeds; the interpolated one moves with the data.
double QuantileMs(const Histogram& h, double q);

/// Runs one step of the calibration kernel and returns its wall seconds.
/// The kernel is standard-library code only (a random walk over a 16 MiB
/// table and small-block hash-map churn), so no change to the system can
/// move it; what moves it is the machine: a co-tenant contending for
/// cache, memory bandwidth or the core slows the kernel and the simulator
/// alike. Steps run between simulator slices, so they sample the same
/// conditions as the run they normalise.
double CalibrationStep();

/// One span of the traced run, kept in memory until the run ends.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double wall_start_s = 0;  // since the tracer was created
  double wall_end_s = 0;
  SimTime sim_start = 0;  // simulated window; 0/0 for driver spans
  SimTime sim_end = 0;
  std::map<std::string, uint64_t> counts;  // deltas over the span
};

class Tracer {
 public:
  explicit Tracer(std::string workload)
      : workload_(std::move(workload)), epoch_(Clock::now()) {}

  int Begin(const std::string& name, int parent);
  Span& End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& workload() const { return workload_; }

 private:
  double Now() const { return SecondsSince(epoch_); }

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Results on the simulated clock: a pure function of workload and seed.
struct SimOutcome {
  uint64_t issued = 0;
  uint64_t settled = 0;
  Histogram latencies;  // settles inside the measurement window
  double p50_ms = 0;
  double p99_ms = 0;
  double goodput_tps = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t trace_hash = 0;
  uint64_t exec_blocks = 0;  // summed over every executing replica
  uint64_t exec_txs = 0;
  double batch_txs_mean = 0;
  std::map<std::string, uint64_t> counters;

  bool operator==(const SimOutcome& o) const;
};

struct RunResult {
  SimOutcome sim;
  double setup_s = 0;
  double wall_s = 0;   // inside Simulator::Run
  double calibration_s = 0;  // calibration steps interleaved with the run
  int calibration_steps = 0;
  double audit_s = 0;  // SafetyAuditor + VerifyAllLedgers
  std::string audit_error;  // empty when every check passed
  // From the run's kTraceWindow windows.
  double slice_drift = 0;
  double outage_ms = 0;
};

/// Wall seconds inside Simulator::Run scaled to the reference machine:
/// raw seconds times (reference ÷ measured) calibration time.
double NormalizedWall(const RunResult& r);

/// Builds the deployment and its clients, runs the workload to kRunEnd
/// in kTraceWindow windows and audits it. With a tracer it records one
/// span per window, and spans for set-up and the audit.
RunResult RunWorkload(const Workload& w, uint64_t seed, Tracer* tracer);

/// Wall seconds to build the deployment and its clients once.
double TimeSetup(const Workload& w, uint64_t seed);

/// Runs every layer driver on inputs generated from the workload's
/// parameters and `seed`; returns metric name -> value and counts every
/// call that returned a wrong answer in `*failures`.
std::map<std::string, double> RunDrivers(const Workload& w, uint64_t seed,
                                         Tracer* tracer, uint64_t* failures);

}  // namespace perfbench
}  // namespace qanaat

#endif  // QANAAT_PERFBENCH_BENCH_H_
