// The three workloads and the run that measures them. README.md records
// why each exists; the short version:
//  * fig7-pbft      — the common case: internal PBFT, batching, execution.
//  * fig9-pf-flat   — the flattened cross protocol behind the privacy
//                     firewall, the costliest path per transaction.
//  * paxos-failover — crash clusters losing their leaders mid-run:
//                     takeover, state transfer, retransmission, Zipf keys.

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "harness/chaos.h"
#include "qanaat/system.h"

namespace qanaat {
namespace perfbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fig7-pbft", FailureModel::kByzantine, ProtocolFamily::kCoordinator,
       /*firewall=*/false, CrossKind::kIntraShardCrossEnterprise, 0.1,
       /*zipf_s=*/0.0, 50000, /*failover=*/false, /*seeds=*/3},
      {"fig9-pf-flat", FailureModel::kByzantine, ProtocolFamily::kFlattened,
       /*firewall=*/true, CrossKind::kCrossShardCrossEnterprise, 0.5,
       /*zipf_s=*/0.0, 3000, /*failover=*/false, /*seeds=*/3},
      {"paxos-failover", FailureModel::kCrash, ProtocolFamily::kCoordinator,
       /*firewall=*/false, CrossKind::kCrossShardIntraEnterprise, 0.3,
       /*zipf_s=*/0.9, 20000, /*failover=*/true, /*seeds=*/12},
  };
  return kWorkloads;
}

uint64_t SubSeed(uint64_t seed, int j) {
  return seed + 1000000 * static_cast<uint64_t>(j);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadParams ParamsOf(const Workload& w) {
  WorkloadParams p;
  p.cross_kind = w.cross_kind;
  p.cross_fraction = w.cross_fraction;
  p.zipf_s = w.zipf_s;
  return p;
}

QanaatSystem::Options OptionsOf(const Workload& w, uint64_t seed) {
  QanaatSystem::Options opts;
  opts.params.num_enterprises = 4;
  opts.params.shards_per_enterprise = 4;
  opts.params.f = opts.params.g = opts.params.h = 1;
  opts.params.failure_model = w.failure_model;
  opts.params.family = w.family;
  opts.params.use_firewall = w.firewall;
  opts.seed = seed;
  return opts;
}

double QuantileMs(const Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  // Histogram::Percentile(q) reads rank floor(q * n); query rank r at
  // q = (r + 0.5) / n so floating-point rounding cannot pick r - 1.
  auto at_rank = [&](uint64_t r) {
    return h.Percentile((static_cast<double>(r) + 0.5) /
                        static_cast<double>(n));
  };
  const double target = std::min(q * static_cast<double>(n),
                                 static_cast<double>(n) - 0.5);
  const uint64_t rank = static_cast<uint64_t>(target);
  const int64_t edge = at_rank(rank);
  // Ranks [first, last] share the bucket whose reported edge is `edge`.
  uint64_t lo = 0, hi = rank;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < edge) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n - 1;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > edge) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  // Upper edge of the bucket. Buckets hold 8 sub-buckets per power of two
  // (width 1 below 8); the reported edge is the bucket's low edge raised
  // to the minimum sample in the lowest bucket.
  int64_t low = edge, width = 1;
  if (edge >= 8) {
    int shift = 63 - __builtin_clzll(static_cast<uint64_t>(edge)) - 3;
    width = int64_t{1} << shift;
    low = (edge >> shift) << shift;
  }
  const int64_t top = std::min(low + width, h.max() + 1);
  const double frac = (target - static_cast<double>(first)) /
                      static_cast<double>(last - first + 1);
  return (static_cast<double>(edge) +
          frac * static_cast<double>(top - edge)) / 1000.0;
}

int Tracer::Begin(const std::string& name, int parent) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.wall_start_s = Now();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

Span& Tracer::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.wall_end_s = Now();
  return s;
}

bool SimOutcome::operator==(const SimOutcome& o) const {
  return issued == o.issued && settled == o.settled &&
         latencies.count() == o.latencies.count() && p50_ms == o.p50_ms &&
         p99_ms == o.p99_ms &&
         goodput_tps == o.goodput_tps && messages == o.messages &&
         bytes == o.bytes && events == o.events &&
         trace_hash == o.trace_hash && exec_blocks == o.exec_blocks &&
         exec_txs == o.exec_txs && batch_txs_mean == o.batch_txs_mean &&
         counters == o.counters;
}

namespace {

class CalibrationKernel {
 public:
  CalibrationKernel() : next_(kTable) {
    // A single cycle through the table, so the walk never settles into a
    // short loop that fits in cache.
    std::vector<uint32_t> order(kTable);
    for (uint32_t i = 0; i < kTable; ++i) order[i] = i;
    for (uint32_t i = kTable - 1; i > 0; --i) {
      std::swap(order[i], order[Mix(i) % (i + 1)]);
    }
    for (uint32_t i = 0; i < kTable; ++i) {
      next_[order[i]] = order[(i + 1) % kTable];
    }
    for (int i = 0; i < 50; ++i) Step();  // reach the map's steady size
  }

  double Step() {
    auto t0 = Clock::now();
    for (int k = 0; k < 4000; ++k) at_ = next_[at_];
    for (int k = 0; k < 4000; ++k, ++i_) {
      map_[Mix(i_) % 32768].reset(new uint64_t[4 + (i_ & 7)]);
      auto it = map_.find(Mix(i_ * 7) % 32768);
      if (it != map_.end()) sink_ += it->first;
    }
    sink_ += at_;
    double dt = SecondsSince(t0);
    observed = sink_;  // keeps the loops from being optimised away
    return dt;
  }

 private:
  static inline volatile uint64_t observed = 0;
  static constexpr uint32_t kTable = 4u << 20;  // 16 MiB of uint32_t
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  std::vector<uint32_t> next_;
  std::unordered_map<uint64_t, std::unique_ptr<uint64_t[]>> map_;
  uint32_t at_ = 0;
  uint64_t i_ = 0;
  uint64_t sink_ = 0;
};

std::unique_ptr<QanaatSystem> Build(const Workload& w, uint64_t seed) {
  auto sys = std::make_unique<QanaatSystem>(OptionsOf(w, seed));

  for (int i = 0; i < kClientMachines; ++i) {
    ClientMachine* c = sys->AddClient(ParamsOf(w), w.offered_tps /
                                                       kClientMachines);
    c->SetRetransmitTimeout(kClientRetransmit);
    c->Start(0, kIssueEnd, kMeasureFrom, kIssueEnd);
  }
  if (w.failover) {
    for (int c = 0; c < sys->cluster_count(); ++c) {
      Actor* victim = sys->ordering_node(c, 0);
      sys->env().sim.ScheduleAt(kCrashAt, [victim] { victim->Crash(); });
      sys->env().sim.ScheduleAt(kRecoverAt, [victim] { victim->Recover(); });
    }
  }
  return sys;
}

uint64_t TotalIssued(const QanaatSystem& sys) {
  uint64_t n = 0;
  for (const auto& c : sys.clients()) n += c->issued();
  return n;
}

SimOutcome Collect(QanaatSystem& sys) {
  SimOutcome o;
  o.issued = TotalIssued(sys);
  o.settled = sys.TotalAccepted();
  o.latencies = sys.MergedLatencies();
  o.p50_ms = QuantileMs(o.latencies, 0.50);
  o.p99_ms = QuantileMs(o.latencies, 0.99);
  o.goodput_tps = static_cast<double>(sys.TotalMeasuredCommits()) /
                  (static_cast<double>(kIssueEnd - kMeasureFrom) / kSecond);
  o.messages = sys.net().messages_sent();
  o.bytes = sys.net().bytes_sent();
  o.events = sys.env().sim.events_executed();
  o.trace_hash = sys.net().trace_hash();
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const ClusterConfig& cc = sys.directory().Cluster(c);
    for (size_t i = 0; i < cc.ordering.size(); ++i) {
      const ExecutorCore& e =
          sys.ordering_node(c, static_cast<int>(i))->exec_core();
      o.exec_blocks += e.executed_blocks();
      o.exec_txs += e.executed_txs();
    }
    for (size_t i = 0; i < cc.execution.size(); ++i) {
      const ExecutorCore& e =
          sys.execution_node(c, static_cast<int>(i))->core();
      o.exec_blocks += e.executed_blocks();
      o.exec_txs += e.executed_txs();
    }
  }
  o.batch_txs_mean = sys.env().metrics.Hist("batch.txs").Mean();
  o.counters = sys.env().metrics.counters();
  return o;
}

/// Advances the simulator to kRunEnd in kTraceWindow windows. A window
/// that ends kCalibrationPeriodS or more of wall time after the last
/// calibration step is followed by another, so steps sample the run
/// evenly in wall time however its cost is spread over simulated time.
/// With a tracer, each window also gets a span carrying its deltas of
/// messages, bytes, events, settles and every Metrics counter.
void RunWindows(const Workload& w, QanaatSystem& sys, Tracer* tracer,
                int root, RunResult* r) {
  Simulator& sim = sys.env().sim;
  std::map<std::string, uint64_t> prev_counters;
  uint64_t prev_msgs = 0, prev_bytes = 0, prev_events = 0, prev_settled = 0;
  std::vector<double> window_wall;
  std::vector<uint64_t> window_settles;
  double since_step = 0;
  for (SimTime start = 0; start < kRunEnd; start += kTraceWindow) {
    int id = tracer ? tracer->Begin("sim.window", root) : -1;
    auto t0 = Clock::now();
    sim.Run(start + kTraceWindow);
    const double dt = SecondsSince(t0);
    const uint64_t settled = sys.TotalAccepted();
    window_wall.push_back(dt);
    window_settles.push_back(settled - prev_settled);
    prev_settled = settled;
    if (tracer) {
      Span& s = tracer->End(id);
      s.sim_start = start;
      s.sim_end = start + kTraceWindow;
      const uint64_t msgs = sys.net().messages_sent();
      const uint64_t bytes = sys.net().bytes_sent();
      const uint64_t events = sim.events_executed();
      s.counts["messages"] = msgs - prev_msgs;
      s.counts["bytes"] = bytes - prev_bytes;
      s.counts["events"] = events - prev_events;
      s.counts["settles"] = window_settles.back();
      for (const auto& [name, value] : sys.env().metrics.counters()) {
        uint64_t before = prev_counters[name];
        if (value != before) s.counts[name] = value - before;
      }
      prev_counters = sys.env().metrics.counters();
      prev_msgs = msgs;
      prev_bytes = bytes;
      prev_events = events;
    }
    r->wall_s += dt;
    since_step += dt;
    if (since_step >= kCalibrationPeriodS) {
      r->calibration_s += CalibrationStep();
      ++r->calibration_steps;
      since_step = 0;
    }
  }

  // Steady state is the measurement window; compare its last quarter's
  // wall time with its first quarter's.
  const size_t from = static_cast<size_t>(kMeasureFrom / kTraceWindow);
  const size_t to = static_cast<size_t>(kIssueEnd / kTraceWindow);
  const size_t quarter = (to - from) / 4;
  double first = 0, last = 0;
  for (size_t i = 0; i < quarter; ++i) {
    first += window_wall[from + i];
    last += window_wall[to - quarter + i];
  }
  r->slice_drift = first > 0 ? last / first : 0;

  // Outage: longest run of windows without a settle, from the crash (or
  // the start of measurement) to the end of issue.
  size_t run = 0, longest = 0;
  const size_t outage_from = static_cast<size_t>(
      (w.failover ? kCrashAt : kMeasureFrom) / kTraceWindow);
  for (size_t i = outage_from; i < to; ++i) {
    run = window_settles[i] == 0 ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  r->outage_ms = static_cast<double>(longest * kTraceWindow) / kMillisecond;
}

}  // namespace

double CalibrationStep() {
  static CalibrationKernel kernel;
  return kernel.Step();
}

double NormalizedWall(const RunResult& r) {
  if (r.calibration_s <= 0) return r.wall_s;
  return r.wall_s * kCalibrationRefStepS * r.calibration_steps /
         r.calibration_s;
}

double TimeSetup(const Workload& w, uint64_t seed) {
  auto t0 = Clock::now();
  auto sys = Build(w, seed);
  return SecondsSince(t0);
}

RunResult RunWorkload(const Workload& w, uint64_t seed, Tracer* tracer) {
  RunResult r;
  int root = tracer ? tracer->Begin("workload.run", -1) : -1;
  int setup = tracer ? tracer->Begin("setup", root) : -1;
  auto t0 = Clock::now();
  std::unique_ptr<QanaatSystem> sys = Build(w, seed);
  r.setup_s = SecondsSince(t0);
  if (tracer) tracer->End(setup);

  RunWindows(w, *sys, tracer, root, &r);
  r.sim = Collect(*sys);

  int audit = tracer ? tracer->Begin("audit", root) : -1;
  t0 = Clock::now();
  Status st = SafetyAuditor::AuditQanaat(*sys, /*full=*/true, nullptr);
  if (!st.ok()) r.audit_error = "safety: " + st.ToString();
  st = sys->VerifyAllLedgers();
  if (!st.ok()) {
    if (!r.audit_error.empty()) r.audit_error += "; ";
    r.audit_error += "ledgers: " + st.ToString();
  }
  r.audit_s = SecondsSince(t0);
  if (tracer) {
    tracer->End(audit);
    tracer->End(root);
  }
  return r;
}

}  // namespace perfbench
}  // namespace qanaat
