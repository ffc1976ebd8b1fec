// Cross-shard conflict resolution (§4.3.5), finished cross instances and
// the §4.3.4 commit query, and pull-based executor state transfer:
// digest-priority arbitration of symmetric rival claims, loser
// re-proposal, what a finished instance keeps, a replica catching up on
// a lost commit, and the firewall-routed StateRequest/StateReply path a
// gapped execution node uses to converge.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "harness/chaos.h"
#include "harness/corpus.h"
#include "qanaat/system.h"

namespace qanaat {
namespace {

/// Inert request source for hand-crafted rivalry scenarios.
class ClientStub : public Actor {
 public:
  explicit ClientStub(Env* env) : Actor(env, "client-stub") {}
  void OnMessage(NodeId from, const MessageRef& msg) override {
    if (msg->type == MsgType::kReply || msg->type == MsgType::kReplyCert) {
      ++replies;
    }
    if (msg->type == MsgType::kReplyCert) cert_senders.push_back(from);
  }
  int replies = 0;
  std::vector<NodeId> cert_senders;
};

// --------------------------------------- §4.3.5 arbitration symmetry

/// Runs the two-enterprise rivalry scenario with the given per-side
/// initiation times, asserts full settlement (both rival transactions
/// commit exactly once, every replica converges), and returns the
/// client timestamp of the transaction that won the contested height 1
/// of the shared chain.
uint64_t RunRivalry(SimTime fire_ent0, SimTime fire_ent1) {
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.params.designated_coordinator = false;  // optimistic mode: races
  so.seed = 3;
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
  // WAN latency between the enterprises: both sides below claim n=1
  // before either one-way trip (50ms) can reveal the rival claim.
  sys.net().SetRtt(0, 1, 100 * kMillisecond);
  ClientStub stub(&sys.env());

  CollectionId shared(EnterpriseSet{0, 1});
  auto make_req = [&](uint64_t ts, EnterpriseId initiator) {
    auto req = std::make_shared<RequestMsg>();
    req->tx.client = stub.id();
    req->tx.client_ts = ts;
    req->tx.collection = shared;
    req->tx.shards = {0};
    req->tx.initiator = initiator;
    req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
    req->tx.client_sig =
        sys.env().keystore.Sign(stub.id(), req->tx.Digest());
    return req;
  };
  sys.env().sim.ScheduleAt(fire_ent0, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(0).InitialPrimary(),
                   make_req(1, 0));
  });
  sys.env().sim.ScheduleAt(fire_ent1, [&]() {
    sys.net().Send(stub.id(), sys.directory().Cluster(1).InitialPrimary(),
                   make_req(2, 1));
  });
  sys.env().sim.Run(2 * kSecond);

  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // A loser existed and went through the re-proposal path.
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_loser"), 0u);
  // Both rival transactions settled, exactly once each.
  uint64_t winner_ts = 0;
  ShardRef ref{shared, 0};
  for (int c = 0; c < sys.cluster_count(); ++c) {
    uint64_t committed = 0;
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    for (size_t i = 0; i < led.size(); ++i) {
      for (const auto& tx : led.entry(i).block->txs) {
        if (tx.client == stub.id()) ++committed;
      }
    }
    EXPECT_EQ(committed, 2u) << "cluster " << c << " did not settle";
    const auto& chain = led.ChainOf(ref);
    if (!chain.empty()) {
      winner_ts = led.entry(chain[0]).block->txs[0].client_ts;
    }
  }
  return winner_ts;
}

TEST(ArbitrationTest, SymmetricClaimsConvergeOnSameWinnerEitherOrder) {
  // Digest priority is a function of block content, not claim-arrival
  // order: whichever side proposes first, the contested height must go
  // to the same block, and the other side's transaction must re-propose
  // onto the next height. The stub lives in region 0, so enterprise 1's
  // propose lags its firing by the 50ms one-way trip: with ent0 firing
  // 20ms (resp. 80ms) after ent1, both claims are in flight before
  // either side can commit-lock, in opposite propose orders.
  uint64_t winner_a = RunRivalry(30 * kMillisecond, 10 * kMillisecond);
  uint64_t winner_b = RunRivalry(90 * kMillisecond, 10 * kMillisecond);
  EXPECT_NE(winner_a, 0u);
  EXPECT_EQ(winner_a, winner_b)
      << "arbitration picked different winners for different claim orders";
}

TEST(ArbitrationTest, LateRivalYieldsToCommittedWinner) {
  // When the claims are NOT concurrent — enterprise 0's block is
  // proposed, accepted by both clusters and commit-locked before
  // enterprise 1's rival even exists — digest priority must not unseat
  // it: the lock wins, the latecomer loses and re-proposes behind it.
  uint64_t winner = RunRivalry(10 * kMillisecond, 30 * kMillisecond);
  EXPECT_EQ(winner, 1u) << "a committed claim was unseated by a late rival";
}

// ------------------------------------------ live cross-instance set

/// Instances in flight across every ordering node of the deployment.
size_t LiveCrossInstances(QanaatSystem& sys) {
  size_t live = 0;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (size_t i = 0; i < sys.directory().Cluster(c).ordering.size(); ++i) {
      live += sys.ordering_node(c, static_cast<int>(i))
                  ->live_cross_states()
                  .size();
    }
  }
  return live;
}

TEST(LiveCrossSetTest, TracksUnfinishedInstancesThroughArbitration) {
  // The rivalry scenario stepped in 5ms slices: the auditor compares each
  // node's live set with the unfinished entries of its instance table
  // after every slice — while both rival instances are in flight, after
  // the loser aborts, and once everything has settled.
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.failure_model = FailureModel::kCrash;
  so.params.family = ProtocolFamily::kFlattened;
  so.params.designated_coordinator = false;
  so.seed = 3;
  so.cluster_regions = {0, 1};
  QanaatSystem sys(std::move(so));
  sys.net().SetRtt(0, 1, 100 * kMillisecond);
  ClientStub stub(&sys.env());
  CollectionId shared(EnterpriseSet{0, 1});
  for (EnterpriseId e : {0, 1}) {
    auto req = std::make_shared<RequestMsg>();
    req->tx.client = stub.id();
    req->tx.client_ts = e + 1;
    req->tx.collection = shared;
    req->tx.shards = {0};
    req->tx.initiator = e;
    req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
    req->tx.client_sig = sys.env().keystore.Sign(stub.id(), req->tx.Digest());
    sys.net().Send(stub.id(), sys.directory().Cluster(e).InitialPrimary(),
                   req);
  }
  size_t peak_live = 0;
  for (SimTime t = 5 * kMillisecond; t <= 2 * kSecond;
       t += 5 * kMillisecond) {
    sys.env().sim.Run(t);
    Status st = SafetyAuditor::AuditQanaat(sys, false, nullptr);
    ASSERT_TRUE(st.ok()) << "t=" << t << ": " << st.ToString();
    peak_live = std::max(peak_live, LiveCrossInstances(sys));
  }
  EXPECT_GT(sys.env().metrics.Get("cross.arbitration_loser"), 0u);
  EXPECT_GT(peak_live, 0u);
  EXPECT_EQ(LiveCrossInstances(sys), 0u) << "settled instances still live";
}

TEST(LiveCrossSetTest, CorpusRunsKeepTheInvariantAtEveryAudit) {
  // The same check runs inside every periodic and final chaos audit. The
  // cross-conflict profile on both Qanaat stacks (rival claims on
  // shared-chain slots) and the two rotation runs whose arbitration
  // aborts the most losers must pass it.
  const CorpusEntry entries[] = {
      {ChaosStack::kQanaatPbft, kConflictSeedBase + 3,
       AdversaryKind::kCrossConflict},
      {ChaosStack::kQanaatPaxos, kConflictSeedBase + 3,
       AdversaryKind::kCrossConflict},
      {ChaosStack::kQanaatPbft, 47, AdversaryKind::kSelectiveSilence},
      {ChaosStack::kQanaatPaxos, 23, AdversaryKind::kSelectiveSilence},
  };
  for (const CorpusEntry& e : entries) {
    ChaosReport r = RunChaos(EntryOptions(e));
    EXPECT_TRUE(r.safety.ok()) << ReproCommand(e) << ": "
                               << r.safety.ToString();
    EXPECT_GT(r.audits, 1u) << ReproCommand(e);
  }
}

/// Flt-B(PF): Byzantine clusters behind the privacy firewall, flattened.
SystemParams FirewallParams() {
  SystemParams p;
  p.num_enterprises = 2;
  p.shards_per_enterprise = 1;
  p.failure_model = FailureModel::kByzantine;
  p.use_firewall = true;
  p.family = ProtocolFamily::kFlattened;
  return p;
}

// ------------------------- finished instances keep only the outcome

/// Walks every ordering node's instance table: a finished instance must
/// have released its votes and kept what answers a §4.3.4 commit query.
/// Returns how many finished instances it saw.
size_t CheckFinishedInstances(QanaatSystem& sys) {
  size_t finished = 0;
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (size_t i = 0; i < sys.directory().Cluster(c).ordering.size(); ++i) {
      const OrderingNode* node = sys.ordering_node(c, static_cast<int>(i));
      for (const auto& [d, xs] : node->cross_states()) {
        if (!xs.done) continue;
        ++finished;
        EXPECT_TRUE(xs.HoldsNoVotes()) << node->name();
        EXPECT_NE(xs.block, nullptr) << node->name();
        EXPECT_TRUE(xs.outcome_known) << node->name();
      }
    }
  }
  return finished;
}

size_t RunAndCheckFinishedInstances(SystemParams p, CrossKind kind) {
  p.num_enterprises = 2;
  p.shards_per_enterprise = 2;
  QanaatSystem::Options opts;
  opts.params = p;
  opts.seed = 5;
  QanaatSystem sys(std::move(opts));
  WorkloadParams wl;
  wl.cross_kind = kind;
  wl.cross_fraction = 0.5;
  ClientMachine* client = sys.AddClient(wl, 400);
  client->Start(0, 600 * kMillisecond, 0, 600 * kMillisecond);
  sys.env().sim.Run(1500 * kMillisecond);
  EXPECT_GT(client->measured_commits(), 100u);
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return CheckFinishedInstances(sys);
}

TEST(FinishedInstanceTest, FlattenedRunKeepsOnlyTheOutcome) {
  size_t finished = RunAndCheckFinishedInstances(
      FirewallParams(), CrossKind::kCrossShardCrossEnterprise);
  EXPECT_GT(finished, 0u);
}

TEST(FinishedInstanceTest, CoordinatorRunKeepsOnlyTheOutcome) {
  SystemParams p;
  p.failure_model = FailureModel::kCrash;
  p.family = ProtocolFamily::kCoordinator;
  size_t finished =
      RunAndCheckFinishedInstances(p, CrossKind::kCrossShardIntraEnterprise);
  EXPECT_GT(finished, 0u);
}

// ----------------------------------------- §4.3.4 commit query

TEST(CommitQueryTest, ReplicaThatLostTheCommitCatchesUpFromAFinishedPeer) {
  // One flattened cross-enterprise transaction. Every FCommit bound for
  // one replica of the second enterprise is swallowed, so it never sees
  // a commit-vote quorum. Its cross timer fires and it queries the
  // coordinator cluster, whose finished instances have already released
  // their votes. The answer (block, assignments, certified outcome) is
  // all it needs to append the block.
  QanaatSystem::Options so;
  so.params = FirewallParams();
  so.params.use_firewall = false;
  so.seed = 19;
  QanaatSystem sys(std::move(so));
  ClientStub stub(&sys.env());
  NodeId victim = sys.directory().Cluster(1).ordering[1];
  Network::LinkFault swallow;
  swallow.silence_mask = Network::LinkFault::TypeBit(MsgType::kFCommit);
  for (int c = 0; c < sys.cluster_count(); ++c) {
    for (NodeId n : sys.directory().Cluster(c).ordering) {
      if (n != victim) sys.net().SetLinkFault(n, victim, swallow);
    }
  }

  CollectionId shared(EnterpriseSet{0, 1});
  auto req = std::make_shared<RequestMsg>();
  req->tx.client = stub.id();
  req->tx.client_ts = 1;
  req->tx.collection = shared;
  req->tx.shards = {0};
  req->tx.initiator = 0;
  req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
  req->tx.client_sig = sys.env().keystore.Sign(stub.id(), req->tx.Digest());
  sys.net().Send(stub.id(), sys.directory().Cluster(0).InitialPrimary(),
                 req);
  sys.env().sim.Run(2 * kSecond);

  EXPECT_GT(sys.env().metrics.Get("cross.query_answered"), 0u);
  // The answer's certificate verified: the outcome survived the release.
  EXPECT_EQ(sys.env().metrics.Get("cross.bad_commit"), 0u);
  ShardRef ref{shared, 0};
  const DagLedger& caught_up = sys.ordering_node(1, 1)->exec_core().ledger();
  ASSERT_EQ(caught_up.ChainOf(ref).size(), 1u);
  for (int c = 0; c < sys.cluster_count(); ++c) {
    const DagLedger& led = sys.ordering_node(c, 0)->exec_core().ledger();
    ASSERT_EQ(led.ChainOf(ref).size(), 1u) << "cluster " << c;
    EXPECT_EQ(led.entry(led.ChainOf(ref)[0]).block->Digest(),
              caught_up.entry(caught_up.ChainOf(ref)[0]).block->Digest());
  }
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
  CheckFinishedInstances(sys);
}

// ----------------------------- pull-based executor state transfer

TEST(ExecutorPullTest, CrashedExecutorRecoversThroughFilterRows) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 7;
  QanaatSystem sys(std::move(opts));

  WorkloadParams wl;
  wl.cross_fraction = 0.0;
  ClientMachine* client = sys.AddClient(wl, 300);
  client->Start(0, 1200 * kMillisecond, 0, 2000 * kMillisecond);

  // Crash one executor mid-stream; every ExecOrder push in the window is
  // lost to it (pushes are fire-and-forget through the filters). On
  // recovery it must pull the missed blocks back through the firewall —
  // nothing else would ever close the gap.
  ExecutionNode* victim = sys.execution_node(0, 2);
  sys.env().sim.ScheduleAt(300 * kMillisecond, [&]() { victim->Crash(); });
  sys.env().sim.ScheduleAt(900 * kMillisecond, [&]() { victim->Recover(); });
  sys.env().sim.Run(2000 * kMillisecond);

  ASSERT_GT(client->measured_commits(), 100u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_on_recover"), 0u);
  EXPECT_GT(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  // Store-fingerprint identity includes the recovered executor: the
  // convergence audit runs with an EMPTY exclusion set.
  static const std::set<NodeId> kNone;
  Status st = SafetyAuditor::AuditQanaat(sys, true, &kNone);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ExecutorPullTest, TamperedStateReplyBlockRejected) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 11;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  ExecutionNode* exec = sys.execution_node(0, 0);

  // A sealed block whose body was tampered AFTER sealing: the memoized
  // tx_root no longer matches the transactions, exactly what a faulty
  // serving peer (or filter) would have to produce to smuggle state into
  // an executor. The verifier recomputes the root from canonical bytes,
  // so the entry must be rejected before any certificate math.
  auto block = std::make_shared<Block>();
  block->id.alpha = {CollectionId(EnterpriseSet{0}), 0, 1};
  Transaction tx;
  tx.collection = block->id.alpha.collection;
  tx.ops.push_back(TxOp{TxOp::Kind::kWrite, 1, 777, {}});
  block->txs.push_back(tx);
  block->Seal();
  block->txs[0].ops[0].value = 999999;  // post-seal tamper

  auto rep = std::make_shared<StateReplyMsg>();
  StateReplyMsg::Entry entry;
  entry.block = block;
  entry.cert.block_digest = block->Digest();
  entry.cert.direct = true;
  entry.cert.sigs.push_back(sys.env().keystore.Forge(cc.ordering[0]));
  entry.alpha = block->id.alpha;
  rep->entries.push_back(entry);
  rep->requester = exec->id();

  // Inject on the legitimate link (top filter row -> executor).
  sys.net().Send(cc.filter_rows.back()[0], exec->id(), rep);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("exec.bad_pull_block"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("exec.pull_block_installed"), 0u);
  EXPECT_EQ(exec->core().executed_blocks(), 0u);
}

TEST(ExecutorPullTest, FiltersDropPullsNotFromAnExecutionNode) {
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 13;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cc = sys.directory().Cluster(0);
  // A StateRequest whose requester is not one of this cluster's
  // execution nodes is out-of-protocol traffic: filters refuse to route
  // it in either direction.
  auto req = std::make_shared<StateRequestMsg>();
  req->frontier = UINT64_MAX;
  req->requester = kInvalidNode;
  sys.net().Send(cc.execution[0], cc.filter_rows.back()[0], req);
  sys.env().sim.RunAll();

  EXPECT_GE(sys.env().metrics.Get("firewall.filtered_bad_pull"), 1u);
  EXPECT_EQ(sys.env().metrics.Get("order.state_served"), 0u);
}

// ---------------------------------- reply-certificate retransmission

TEST(ReplyCacheTest, BackupAnswersRetransmissionWithCachedCertificate) {
  // Firewall mode: reply certificates come back down the filter rows to
  // every ordering node, and each caches them. A client retransmission
  // that lands on a backup is answered from that cache directly, without
  // relaying to the primary.
  QanaatSystem::Options opts;
  opts.params = FirewallParams();
  opts.seed = 17;
  QanaatSystem sys(std::move(opts));
  ClientStub stub(&sys.env());
  const ClusterConfig& cc = sys.directory().Cluster(0);

  auto req = std::make_shared<RequestMsg>();
  req->tx.client = stub.id();
  req->tx.client_ts = 1;
  req->tx.collection = CollectionId(EnterpriseSet{0});
  req->tx.shards = {0};
  req->tx.initiator = 0;
  req->tx.ops.push_back(TxOp{TxOp::Kind::kAdd, 1, 5, {}});
  req->tx.client_sig = sys.env().keystore.Sign(stub.id(), req->tx.Digest());
  sys.net().Send(stub.id(), cc.InitialPrimary(), req);
  sys.env().sim.Run(500 * kMillisecond);
  // The primary forwards each certificate a bottom-row filter sends it.
  const size_t first_round = stub.cert_senders.size();
  ASSERT_GT(first_round, 0u);
  for (NodeId n : stub.cert_senders) EXPECT_EQ(n, cc.InitialPrimary());

  NodeId backup = cc.ordering[1];
  ASSERT_NE(backup, cc.InitialPrimary());
  auto retransmission = std::make_shared<RequestMsg>(*req);
  retransmission->is_retransmission = true;
  sys.net().Send(stub.id(), backup, retransmission);
  sys.env().sim.Run(1000 * kMillisecond);
  ASSERT_EQ(stub.cert_senders.size(), first_round + 1);
  EXPECT_EQ(stub.cert_senders.back(), backup);
  // Answered from the cache: nothing was relayed to the primary.
  EXPECT_EQ(sys.env().metrics.Get("order.duplicate_request"), 0u);
}

}  // namespace
}  // namespace qanaat
