#ifndef QANAAT_HARNESS_CHAOS_H_
#define QANAAT_HARNESS_CHAOS_H_

#include <set>
#include <string>

#include "baselines/fabric.h"
#include "common/status.h"
#include "qanaat/system.h"
#include "sim/faults.h"
#include "workload/smallbank.h"

namespace qanaat {

/// Which protocol stack a chaos run hammers.
enum class ChaosStack : uint8_t {
  kQanaatPbft = 0,   // Byzantine clusters, PBFT internal consensus
  kQanaatPaxos = 1,  // crash clusters, Multi-Paxos internal consensus
  kFabric = 2,       // Hyperledger Fabric baseline (Raft ordering)
};

const char* ChaosStackName(ChaosStack s);

/// One deterministic chaos run: a system built from `seed`, a SmallBank
/// workload, a seed-expanded FaultPlan, and continuous safety audits.
/// Identical options (including seed) reproduce the run bit-identically —
/// ChaosReport::trace_hash is the witness.
struct ChaosOptions {
  ChaosStack stack = ChaosStack::kQanaatPbft;
  uint64_t seed = 1;

  // Topology (Qanaat stacks; Fabric uses `enterprises` only).
  int enterprises = 2;
  int shards_per_enterprise = 2;
  ProtocolFamily family = ProtocolFamily::kFlattened;
  /// When false, any involved cluster may claim a slot for a shared
  /// collection shard — the §4.3.5 symmetric-rivalry regime that the
  /// cross-conflict corpus profile drives (digest-priority arbitration
  /// plus loser re-proposal must settle every contested transaction).
  bool designated_coordinator = true;
  bool use_firewall = false;
  /// With the firewall: one execution node per cluster turns Byzantine
  /// and corrupts every reply — the filters must contain it.
  bool byzantine_executor = false;

  // Workload.
  double offered_tps = 300;
  int client_machines = 2;
  CrossKind cross_kind = CrossKind::kIntraShardCrossEnterprise;
  double cross_fraction = 0.25;
  SimTime client_retransmit_us = 250 * kMillisecond;  // Qanaat stacks only

  // Schedule: faults happen in [0, heal_at); clients issue until
  // issue_until; the run quiesces until run_until, then the final audit
  // (including convergence, when the plan permits) executes.
  SimTime heal_at = 800 * kMillisecond;
  SimTime issue_until = 1400 * kMillisecond;
  SimTime run_until = 2000 * kMillisecond;
  SimTime audit_period = 100 * kMillisecond;

  ChaosProfile profile;
};

struct ChaosReport {
  /// Ok iff every audit (periodic and final) passed. The first violation
  /// is captured verbatim.
  Status safety = Status::Ok();
  /// Network trace hash at the end of the run — the replay witness.
  uint64_t trace_hash = 0;
  uint64_t faults_applied = 0;
  uint64_t audits = 0;
  /// Transactions settled at clients over the whole run / by heal_at.
  uint64_t commits_total = 0;
  uint64_t commits_at_heal = 0;
  /// Commits happened after every fault healed (the liveness criterion).
  bool liveness_resumed = false;
  /// Microseconds after heal_at until the first post-heal settle was
  /// observed (10ms polling granularity); -1 = liveness never resumed.
  /// The liveness *cost* of an adversary shows up here: safety holds for
  /// free, recovery time does not.
  SimTime liveness_resume_us = -1;
  /// The final audit also asserted bit-identical ledgers across all
  /// non-degraded replicas (possible only without untargeted loss).
  bool convergence_checked = false;
  uint64_t net_duplicated = 0;
  uint64_t net_reordered = 0;
  uint64_t net_dropped = 0;
  uint64_t net_silenced = 0;
  std::string plan_summary;
};

ChaosReport RunChaos(const ChaosOptions& opts);

/// Cross-replica safety audits. Exposed separately so targeted tests can
/// audit systems they drive themselves.
class SafetyAuditor {
 public:
  /// Checks, across every ledger of the deployment (ordering and
  /// execution replicas of all clusters):
  ///  * chain agreement — no two replicas hold different blocks at the
  ///    same (collection shard, height); cross-cluster replicas of a
  ///    shared collection shard agree on the common prefix;
  ///  * at-most-once commit — no (client, timestamp) pair appears twice
  ///    in one ledger;
  ///  * with `full`: per-ledger hash-chain + γ-monotonicity re-audit
  ///    (DagLedger::VerifyChain) and firewall containment (every link a
  ///    message was delivered on is still allowed by the wiring);
  ///  * with `converged_except` non-null: every replica NOT in the set
  ///    ends with chains identical to its cluster peers' (same heads,
  ///    same digests) AND an identical multi-versioned store per chain
  ///    (state identity). Since the checkpoint/state-transfer subsystem
  ///    the chaos corpus passes an EMPTY exclusion set: recovered
  ///    replicas converge too, not just stay prefix-consistent;
  ///  * every ordering node's live cross-instance set equals the
  ///    unfinished entries of its instance table.
  static Status AuditQanaat(QanaatSystem& sys, bool full,
                            const std::set<NodeId>* converged_except);

  /// Fabric: peers agree on the content digest of every block number they
  /// share, each peer applied a gapless block prefix, and no transaction
  /// id validated twice (fabric.safety.double_commit == 0).
  static Status AuditFabric(FabricSystem& sys);

  /// Every delivered link must still satisfy the (static) restriction
  /// table — the firewall's physical wiring holds under duplication,
  /// reordering and every other injected fault.
  static Status AuditLinkContainment(const Network& net);
};

}  // namespace qanaat

#endif  // QANAAT_HARNESS_CHAOS_H_
