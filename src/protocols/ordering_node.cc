#include "protocols/ordering_node.h"

#include <algorithm>

#include "consensus/paxos.h"
#include "consensus/pbft.h"

namespace qanaat {

OrderingNode::OrderingNode(Env* env, const Directory* dir,
                           const DataModel* model, int cluster_id, int index)
    : Actor(env, "order/" + std::to_string(cluster_id) + "/" +
                     std::to_string(index),
            dir->Cluster(cluster_id).region),
      dir_(dir),
      model_(model),
      cfg_(dir->Cluster(cluster_id)),
      index_(index),
      exec_(env, model, cfg_.enterprise, cfg_.shard),
      batcher_(
          BatcherConfig{dir->params.batch_size, dir->params.batch_timeout_us},
          [this](SimTime delay, uint64_t token) {
            StartTimer(delay, kTagBatch, token);
          },
          [this](const FlowKey& key, std::vector<Transaction> txs,
                 BatchClose why) { OnBatchClosed(key, std::move(txs), why); }) {
  // The dedup tables sit on the per-request hot path but start empty:
  // growth is amortized (each rebuild is a flat copy), and an up-front
  // reservation per table per node was nearly all of a deployment's
  // set-up allocation while saving only the first few rebuilds.
  EngineContext ctx;
  ctx.env = env;
  ctx.self = id();
  ctx.cluster = cfg_.ordering;
  ctx.self_index = index;
  ctx.pipeline_depth = static_cast<size_t>(
      dir_->params.pipeline_depth < 0 ? 0 : dir_->params.pipeline_depth);
  ctx.send = [this](NodeId to, MessageRef m) { Send(to, std::move(m)); };
  ctx.broadcast = [this](MessageRef m) {
    for (NodeId peer : cfg_.ordering) {
      if (peer != id()) Send(peer, m);
    }
  };
  ctx.start_timer = [this](SimTime d, uint64_t tag, uint64_t payload) {
    StartTimer(d, tag, payload);
  };
  ctx.deliver = [this](uint64_t slot, const ConsensusValue& v) {
    OnDecide(slot, v);
  };
  ctx.checkpoint_interval = static_cast<size_t>(
      dir_->params.checkpoint_interval < 0
          ? 0
          : dir_->params.checkpoint_interval);
  if (dir_->params.state_transfer) {
    ctx.request_state_transfer = [this](const CheckpointCertificate&) {
      // The peer's StateReply carries its own certificate; all the host
      // needs to know is that per-slot catch-up cannot work.
      ScheduleStateSync(dir_->params.consensus_timeout_us / 4);
    };
  }
  ctx.on_view_change = [this](ViewNo, NodeId new_primary) {
    if (new_primary == id()) ReplayExecPushes();
  };
  if (cfg_.failure_model == FailureModel::kByzantine) {
    engine_ = std::make_unique<PbftEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  } else {
    engine_ = std::make_unique<PaxosEngine>(
        std::move(ctx), dir_->params.f, dir_->params.consensus_timeout_us);
  }
}

SimTime OrderingNode::CostOf(const Message& msg) const {
  if (msg.type == MsgType::kRequest) {
    SimTime auth = cfg_.failure_model == FailureModel::kCrash
                       ? env()->costs.mac_verify_us
                       : env()->costs.verify_sig_us;
    SimTime pf = dir_->params.use_firewall
                     ? env()->costs.pf_tx_overhead_us
                     : 0;
    return env()->costs.base_proc_us + auth + pf;
  }
  return Actor::CostOf(msg);
}

void OrderingNode::OnCrash() {
  // Volatile intake state dies with the process: pending batch items are
  // recovered by client retransmission, and the batcher's armed-timer
  // flags must not outlive the timers (which the crash epoch discards).
  batcher_.Reset();
  progress_checks_.clear();
  pending_exec_push_.clear();
  state_sync_pending_ = false;  // its timer died with the old epoch
  exec_wedge_armed_ = false;
  exec_wedged_ = false;
  engine_->OnHostCrash();
}

void OrderingNode::MaybeWatchExecWedge() {
  if (!dir_->params.state_transfer || exec_wedge_armed_) return;
  if (exec_.pending_blocks() == 0) return;
  exec_wedge_armed_ = true;
  exec_ledger_at_arm_ = exec_.ledger().size();
  StartTimer(dir_->params.cross_timeout_us, kTagExecWedge, 0);
}

void OrderingNode::OnRecover() {
  engine_->OnHostRecover();
  MaybeWatchExecWedge();
  // A restarted replica missed every commit of its downtime — including
  // cross-cluster commits nothing will ever retransmit (completed
  // instances stop re-driving). Proactively fetch the gap from a peer;
  // the tail still catches up through the normal fill protocols.
  if (!dir_->params.state_transfer) return;
  ScheduleStateSync(dir_->params.consensus_timeout_us / 2);
}

// --------------------------------------------------------------- intake

void OrderingNode::OnMessage(NodeId from, const MessageRef& msg) {
  switch (msg->type) {
    case MsgType::kRequest:
      HandleRequest(from, *msg->As<RequestMsg>());
      break;
    case MsgType::kPrePrepare:
      ObserveProposedValue(msg->As<PrePrepareMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosAccept:
      ObserveProposedValue(msg->As<PaxosAcceptMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kViewChange:
      for (const auto& p : msg->As<ViewChangeMsg>()->prepared) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kNewView:
      for (const auto& p : msg->As<NewViewMsg>()->reproposals) {
        ObserveProposedValue(p.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPromise:
      for (const auto& a : msg->As<PaxosPromiseMsg>()->accepted) {
        ObserveProposedValue(a.value);
      }
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPrepare:
    case MsgType::kCommit:
    case MsgType::kPaxosAccepted:
    case MsgType::kPaxosLearn:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kFillReply:
      ObserveProposedValue(msg->As<FillReplyMsg>()->value);
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kPaxosPrepare:
    case MsgType::kFillRequest:
    case MsgType::kCheckpoint:
      engine_->OnMessage(from, msg);
      break;
    case MsgType::kStateRequest:
      HandleStateRequest(from, *msg->As<StateRequestMsg>());
      break;
    case MsgType::kStateReply:
      HandleStateReply(from, *msg->As<StateReplyMsg>());
      break;
    case MsgType::kXPrepare:
      ObserveProposedBlock(msg->As<XPrepareMsg>()->block);
      HandleXPrepare(from, *msg->As<XPrepareMsg>());
      break;
    case MsgType::kXPrepared:
      HandleXPrepared(from, *msg->As<XPreparedMsg>());
      break;
    case MsgType::kXCommit:
    case MsgType::kXAbort:
      HandleXCommit(from, *msg->As<XCommitMsg>());
      break;
    case MsgType::kFPropose:
      ObserveProposedBlock(msg->As<FProposeMsg>()->block);
      HandleFPropose(from, *msg->As<FProposeMsg>());
      break;
    case MsgType::kFAccept:
      HandleFAccept(from, *msg->As<FAcceptMsg>());
      break;
    case MsgType::kFCommit:
      HandleFCommit(from, *msg->As<FCommitMsg>());
      break;
    case MsgType::kCommitQuery:
    case MsgType::kPreparedQuery:
      HandleQuery(from, *msg->As<QueryMsg>());
      break;
    case MsgType::kReplyCert:
      ForwardReplyCert(*msg->As<ReplyCertMsg>());
      break;
    case MsgType::kExecReply: {
      // Fig 4(b) path: crash-only execution nodes report to the primary,
      // which forwards a plain reply to the client machines.
      const auto& m = *msg->As<ExecReplyMsg>();
      auto reply = std::make_shared<ReplyMsg>();
      reply->block_digest = m.block_digest;
      reply->result_digest = m.result_digest;
      reply->clients = m.clients;
      reply->sig = env()->keystore.Sign(id(), m.result_digest);
      SortedVec<NodeId> machines;
      for (const auto& [c, ts] : m.clients) machines.Insert(c);
      for (NodeId c : machines) Send(c, reply);
      break;
    }
    default:
      break;
  }
}

void OrderingNode::OnTimer(uint64_t tag, uint64_t payload) {
  if (tag >= InternalConsensus::kEngineTimerBase) {
    engine_->OnTimer(tag, payload);
    return;
  }
  if (tag == kTagBatch) {
    batcher_.OnTimer(payload);
    return;
  }
  if (tag == kTagRetry) {
    RunRetry(payload);
    return;
  }
  if (tag == kTagStateSync) {
    state_sync_pending_ = false;
    SendStateRequest();
    return;
  }
  if (tag == kTagExecPush) {
    auto it = pending_exec_push_.find(payload);
    if (it == pending_exec_push_.end()) return;
    if (reply_cache_.count(it->second.msg->cert.block_digest)) {
      // A reply certificate came back down the firewall: the execution
      // nodes saw the block, nothing to do.
      pending_exec_push_.erase(it);
      return;
    }
    env()->metrics.Inc("order.exec_push_backup");
    if (cfg_.HasFirewall()) {
      Multicast(cfg_.filter_rows.front(), it->second.msg);
    } else {
      Multicast(cfg_.execution, it->second.msg);
    }
    if (++it->second.tries >= 3) {
      pending_exec_push_.erase(it);
    } else {
      StartTimer(dir_->params.cross_timeout_us, kTagExecPush, payload);
    }
    return;
  }
  if (tag == kTagExecWedge) {
    exec_wedge_armed_ = false;
    if (exec_.pending_blocks() == 0) {
      exec_wedged_ = false;
      return;
    }
    if (exec_.ledger().size() == exec_ledger_at_arm_) {
      exec_wedged_ = true;
      env()->metrics.Inc("order.exec_wedge_detected");
      ScheduleStateSync(0);
    } else {
      exec_wedged_ = false;  // progressing again
    }
    MaybeWatchExecWedge();
    return;
  }
  if (tag == kTagProgress) {
    auto it = progress_checks_.find(payload);
    if (it == progress_checks_.end()) return;
    if (IsDuplicateRequest(it->second.id)) {
      // A proposal carrying the request was observed — primary is live.
      progress_checks_.erase(it);
      return;
    }
    if (engine_->LastDelivered() != it->second.delivered_at_arm) {
      // Consensus moved since the relay: the primary is alive and the
      // request is parked for some other (legitimate) reason. Suspecting
      // here would thrash views on a healthy cluster.
      progress_checks_.erase(it);
      return;
    }
    if (++it->second.tries > 3) {
      // The request is lost upstream (e.g. dropped on the wire); the
      // client's retransmission will start a fresh watchdog.
      progress_checks_.erase(it);
      return;
    }
    env()->metrics.Inc("order.primary_suspected");
    engine_->SuspectPrimary();
    it->second.delivered_at_arm = engine_->LastDelivered();
    StartTimer(2 * dir_->params.consensus_timeout_us, kTagProgress, payload);
    return;
  }
  if (tag == kTagCross) {
    auto it = cross_timer_digest_.find(payload);
    if (it == cross_timer_digest_.end()) return;
    Sha256Digest d = it->second;
    cross_timer_digest_.erase(it);
    auto xit = xstates_.find(d);
    if (xit == xstates_.end() || xit->second.done) return;
    xit->second.timer_armed = false;
    env()->metrics.Inc("cross.timeout");
    // Initiator/coordinator primary: re-drive the instance — some votes
    // or the PREPARE/PROPOSE itself may have been lost, and nothing else
    // retransmits them.
    RedriveCross(xit->second);
    // The re-drive may have aborted the instance into the retry
    // machinery (arbitration back-off) and reshaped xstates_ — re-find
    // before touching the state again.
    xit = xstates_.find(d);
    if (xit == xstates_.end() || xit->second.done) return;
    XState& xs = xit->second;
    // §4.3.4: query the coordinator/initiator cluster for the outcome.
    auto q = std::make_shared<QueryMsg>(MsgType::kCommitQuery);
    q->from_cluster = cfg_.cluster_id;
    q->block_digest = d;
    q->sig = env()->keystore.Sign(id(), d);
    int coord = xs.involved.empty() ? cfg_.cluster_id : xs.involved.front();
    if (xs.block) {
      coord = CoordinatorClusterOf(xs.block->id.alpha.collection,
                                   AllShards(xs));
    }
    Multicast(dir_->Cluster(coord).ordering, q);
    ArmCrossTimer(d);
    return;
  }
}

std::vector<ShardId> OrderingNode::AllShards(const XState& xs) {
  std::vector<ShardId> out;
  out.reserve(xs.assignments.size());
  for (const auto& [s, a] : xs.assignments) out.push_back(s);
  if (out.empty() && xs.block) {
    out = xs.block->txs.empty() ? std::vector<ShardId>{0}
                                : xs.block->txs.front().shards;
  }
  return out;
}

void OrderingNode::HandleRequest(NodeId /*from*/, const RequestMsg& m) {
  const Transaction& tx = m.tx;
  // Authorization + signature (paper §4.1: "valid signed request from an
  // authorized client").
  if (!env()->keystore.Verify(tx.client_sig, tx.Digest())) {
    env()->metrics.Inc("order.bad_request_sig");
    return;
  }
  if (!engine_->IsPrimary()) {
    // Relay to the current primary (§4.3.4 client retransmission path).
    if (m.is_retransmission) {
      auto it = reply_cache_.end();
      // Re-send a cached reply if we executed it already.
      for (auto& [digest, cached] : reply_cache_) {
        for (auto& [c, ts] : cached->clients) {
          if (c == tx.client && ts == tx.client_ts) {
            it = reply_cache_.find(digest);
            break;
          }
        }
        if (it != reply_cache_.end()) break;
      }
      if (it != reply_cache_.end()) {
        Send(tx.client, it->second);
        return;
      }
    }
    Send(engine_->PrimaryNode(), std::make_shared<RequestMsg>(m));
    WatchRelayedRequest(tx);
    return;
  }
  if (IsDuplicateRequest({tx.client, tx.client_ts})) {
    env()->metrics.Inc("order.duplicate_request");
    return;
  }
  if (IntakeGated()) {
    // A catching-up primary must not admit fresh batches: its permanent
    // at-most-once record is still incomplete, so a retransmission of a
    // transaction whose commit it has not yet learned would be ordered a
    // second time. The client retransmits once the gate clears.
    env()->metrics.Inc("order.intake_gated");
    return;
  }
  // Write rule (§3.2): the transaction must target a collection its
  // initiating enterprise is involved in.
  Status ok = model_->ValidateWrite(tx.collection, cfg_.enterprise);
  if (!ok.ok()) {
    env()->metrics.Inc("order.rejected_write_rule");
    return;
  }
  seen_requests_.Put({tx.client, tx.client_ts}, now());
  MaybePurgeDedup();

  // Requests of one flow (same collection + shard set) can legally share
  // a block; cross-cluster flows use the longer batch window.
  FlowKey key{tx.collection, tx.shards};
  SimTime window = IsCross(key) ? dir_->params.cross_batch_timeout_us : 0;
  batcher_.Add(key, tx, window);
}

void OrderingNode::ObserveProposedValue(const ConsensusValue& v) {
  if (v.kind != ConsensusValue::Kind::kBlock &&
      v.kind != ConsensusValue::Kind::kXOrder) {
    return;
  }
  ObserveProposedBlock(v.block);
}

void OrderingNode::ObserveProposedBlock(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const Transaction& tx : block->txs) {
    observed_requests_.Put({tx.client, tx.client_ts}, now());
  }
  // Backups never take the intake path, so the observation map must be
  // purged here too or it grows for the whole run on (n-1)/n nodes.
  MaybePurgeDedup();
}

bool OrderingNode::IntakeGated() const {
  // Deferred blocks gate intake from the FIRST deferral, not only once
  // the wedge watchdog confirms one: the gap between "a commit we have
  // not applied exists" and "the watchdog noticed" is exactly where a
  // catching-up leader re-orders a retransmission into a duplicate
  // block (the chaos corpus reproduces this deterministically). The
  // cost on a healthy primary is negligible — transient γ-deferrals
  // rarely coincide with intake, and gated clients simply retransmit.
  return dir_->params.state_transfer &&
         (state_sync_pending_ || exec_wedged_ ||
          exec_.pending_blocks() > 0);
}

SimTime OrderingNode::DedupWindowUs() const {
  // The window a live proposal could still commit in (internal rounds
  // plus a full re-driven cross instance); past it the proposal is
  // presumed abandoned and the transaction may be batched afresh.
  return 2 * dir_->params.cross_timeout_us;
}

bool OrderingNode::RecentlyIn(const RequestTable& m,
                              const RequestId& id) const {
  const SimTime* at = m.Find(id);
  return at != nullptr && now() - *at <= DedupWindowUs();
}

bool OrderingNode::ObservedRecently(const RequestId& id) const {
  return committed_requests_.Contains(id) ||
         RecentlyIn(observed_requests_, id);
}

bool OrderingNode::IsDuplicateRequest(const RequestId& id) const {
  // Intake dedup uses the same expiry as observation dedup: past the
  // window, this node's own proposal is presumed abandoned and a client
  // retransmission may be admitted afresh — otherwise a transaction lost
  // in an abandoned proposal would stay blacklisted here until another
  // node became primary.
  // pending_cross_ deliberately has no expiry: those requests sit in a
  // cross instance this node keeps re-driving, so they are never
  // abandoned while pinned (see FinishCross for the release).
  return committed_requests_.Contains(id) ||
         pending_cross_.find(id) != pending_cross_.end() ||
         RecentlyIn(seen_requests_, id) ||
         RecentlyIn(observed_requests_, id);
}

void OrderingNode::PinCross(const BlockPtr& block) {
  for (const auto& tx : block->txs) {
    ++pending_cross_[{tx.client, tx.client_ts}];
  }
}

void OrderingNode::UnpinCross(const BlockPtr& block) {
  if (block == nullptr) return;
  for (const auto& tx : block->txs) {
    auto it = pending_cross_.find({tx.client, tx.client_ts});
    if (it == pending_cross_.end()) continue;
    if (--it->second == 0) pending_cross_.erase(it);
  }
}

void OrderingNode::MaybePurgeDedup() {
  if (now() - last_dedup_purge_ <= DedupWindowUs()) return;
  last_dedup_purge_ = now();
  SimTime horizon = now() - DedupWindowUs();
  seen_requests_.PurgeBefore(horizon);
  observed_requests_.PurgeBefore(horizon);
}

void OrderingNode::WatchRelayedRequest(const Transaction& tx) {
  uint64_t token = next_progress_++;
  ProgressCheck pc;
  pc.id = {tx.client, tx.client_ts};
  pc.delivered_at_arm = engine_->LastDelivered();
  progress_checks_[token] = pc;
  StartTimer(2 * dir_->params.consensus_timeout_us, kTagProgress, token);
}

LocalPart OrderingNode::NextAlpha(const CollectionId& c) {
  LocalPart a;
  a.collection = c;
  a.shard = cfg_.shard;
  // In optimistic (non-designated) mode another enterprise's commits may
  // have advanced the chain past our own assignment counter.
  SeqNo base = std::max(next_seq_[c], StateOfCollection(c));
  a.n = base + 1;
  next_seq_[c] = a.n;
  return a;
}

SeqNo OrderingNode::StateOfCollection(const CollectionId& c) const {
  const SeqNo* at = state_.Find(c);
  return at == nullptr ? 0 : *at;
}

SeqNo OrderingNode::CommittedHeadOf(const CollectionId& c) const {
  return exec_.ledger().HeadOf(ShardRef{c, cfg_.shard});
}

std::vector<GammaEntry> OrderingNode::CaptureGamma(
    const CollectionId& c) const {
  // §4.1: the global part includes the current state of *all* collections
  // d_c is order-dependent on, because the read-set is unknown until
  // execution.
  std::vector<GammaEntry> gamma;
  for (const CollectionId& dep : model_->OrderDependenciesOf(c)) {
    const SeqNo* at = state_.Find(dep);
    SeqNo m = at == nullptr ? 0 : *at;
    gamma.push_back(GammaEntry{dep, m});
  }
  return gamma;
}

BlockPtr OrderingNode::MakeBlock(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 uint32_t attempt) {
  auto block = std::make_shared<Block>();
  block->attempt = attempt;
  block->id.alpha = NextAlpha(key.collection);
  block->id.gamma = CaptureGamma(key.collection);
  block->txs = std::move(txs);
  block->Seal();
  // Batching cost: hashing/assembling the block.
  const_cast<OrderingNode*>(this)->ChargeCpu(
      static_cast<SimTime>(block->txs.size()) * env()->costs.batch_tx_us);
  return block;
}

void OrderingNode::OnBatchClosed(const FlowKey& key,
                                 std::vector<Transaction> txs,
                                 BatchClose why) {
  // A transaction observed in another leader's proposal between intake
  // and batch close is (or will be) ordered there — proposing it again
  // here would commit it twice.
  size_t before = txs.size();
  txs.erase(std::remove_if(txs.begin(), txs.end(),
                           [this](const Transaction& tx) {
                             return ObservedRecently(
                                 {tx.client, tx.client_ts});
                           }),
            txs.end());
  if (txs.size() != before) {
    env()->metrics.Inc("order.dup_tx_filtered", before - txs.size());
  }
  if (txs.empty()) return;
  env()->metrics.Inc(std::string("batch.closed_") + BatchCloseName(why));
  env()->metrics.Hist("batch.txs").Add(static_cast<int64_t>(txs.size()));

  BlockPtr block = MakeBlock(key, std::move(txs));
  if (!IsCross(key)) {
    // Intra-shard intra-enterprise: internal consensus commits directly.
    ConsensusValue v = ConsensusValue::ForBlock(block);
    v.batch_close = static_cast<uint8_t>(why);
    engine_->Propose(v);
    return;
  }
  if (dir_->params.family == ProtocolFamily::kCoordinator) {
    StartCoordinated(block);
  } else {
    StartFlattened(block);
  }
}

// --------------------------------------------------- consensus plumbing

CommitCertificate OrderingNode::MakeCert(uint64_t slot,
                                         const Sha256Digest& digest,
                                         ConsensusValue::Kind kind) {
  CommitCertificate cert;
  cert.block_digest = digest;
  cert.view = engine_->view();
  cert.slot = slot;
  cert.value_kind = static_cast<uint8_t>(kind);
  cert.sigs = engine_->CommitProof(slot);
  if (cert.sigs.empty()) {
    // Crash clusters don't exchange signatures during consensus; the
    // appending node certifies the decided block itself.
    cert.direct = true;
    cert.sigs.push_back(env()->keystore.Sign(id(), digest));
  }
  return cert;
}

void OrderingNode::OnDecide(uint64_t slot, const ConsensusValue& v) {
  switch (v.kind) {
    case ConsensusValue::Kind::kBlock: {
      CommitCertificate cert =
          MakeCert(slot, v.block_digest, ConsensusValue::Kind::kBlock);
      CommitBlock(v.block, std::move(cert), v.block->id.alpha,
                  v.block->id.gamma, /*reply_from_here=*/true);
      break;
    }
    case ConsensusValue::Kind::kXOrder:
      OnXOrderDecided(slot, v);
      break;
    case ConsensusValue::Kind::kXCommit:
      OnXCommitDecided(slot, v, /*is_abort=*/false);
      break;
    case ConsensusValue::Kind::kXAbort:
      OnXCommitDecided(slot, v, /*is_abort=*/true);
      break;
    case ConsensusValue::Kind::kNoop:
      break;
  }
}

// ------------------------------------------------- commit & execution

void OrderingNode::CommitBlock(const BlockPtr& block, CommitCertificate cert,
                               const LocalPart& alpha,
                               std::vector<GammaEntry> gamma,
                               bool reply_from_here) {
  for (const Transaction& tx : block->txs) {
    committed_requests_.Put({tx.client, tx.client_ts}, 0);
  }
  // Track committed state for future γ captures.
  auto& st = state_[alpha.collection];
  st = std::max(st, alpha.n);
  committed_blocks_++;
  committed_txs_ += block->tx_count();
  if (reply_from_here) reply_owner_.insert(cert.block_digest);

  if (cfg_.SeparatedExecution()) {
    // Byzantine with separation: the primary pushes the request + commit
    // certificate through the privacy firewall (§4.2). Backups keep the
    // recent pushes instead of discarding them — if the primary crashed
    // between committing and forwarding, the next primary replays the
    // tail on its view change (execution-side dedup absorbs duplicates).
    auto eo = std::make_shared<ExecOrderMsg>();
    eo->block = block;
    eo->cert = std::move(cert);
    eo->alpha_here = alpha;
    eo->gamma_here = std::move(gamma);
    eo->wire_bytes = 128 + block->WireSize() + eo->cert.WireSize();
    eo->sig_verify_ops = static_cast<uint16_t>(eo->cert.sigs.size());
    if (engine_->IsPrimary()) {
      if (cfg_.HasFirewall()) {
        Multicast(cfg_.filter_rows.front(), eo);
      } else {
        Multicast(cfg_.execution, eo);
      }
    } else {
      uint64_t token = next_exec_push_++;
      pending_exec_push_[token] = PendingExecPush{std::move(eo), 0};
      StartTimer(dir_->params.cross_timeout_us, kTagExecPush, token);
    }
    return;
  }

  // Co-located execution (crash clusters; Byzantine without separation):
  // every ordering node executes.
  bool primary = engine_->IsPrimary();
  Status st2 = exec_.Submit(
      block, std::move(cert), alpha, std::move(gamma),
      [this, reply_from_here, primary](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
        if (!reply_from_here) return;
        OnExecutedReply(res, primary);
      });
  if (!st2.ok() && st2.code() != StatusCode::kAlreadyExists) {
    env()->metrics.Inc("order.commit_submit_error");
  }
  MaybeWatchExecWedge();
}

void OrderingNode::OnExecutedReply(const ExecutorCore::ExecResult& res,
                                   bool primary) {
  // Every executing node replies; the client machine applies its
  // acceptance rule (first reply on crash clusters, f+1 matching results
  // on Byzantine ones). Suppressing non-primary replies on crash
  // clusters — the cheaper steady-state choice — deadlocks under chaos:
  // leadership can land on a recovered replica whose execution lags its
  // consensus (its ledger misses blocks from its crashed life), and then
  // nobody ever answers the clients.
  (void)primary;
  auto reply = std::make_shared<ReplyMsg>();
  reply->block_digest = res.block->Digest();
  reply->result_digest = res.result_digest;
  reply->clients = res.clients;
  reply->sig = env()->keystore.Sign(id(), res.result_digest);
  reply->wire_bytes = 96 + static_cast<uint32_t>(res.clients.size() * 12);
  // Distinct target machines in ascending id order (same order the
  // std::set this replaced produced) without a tree allocation per reply.
  SortedVec<NodeId> machines;
  for (const auto& [c, ts] : res.clients) machines.Insert(c);
  for (NodeId c : machines) Send(c, reply);
}

void OrderingNode::ForwardReplyCert(const ReplyCertMsg& m) {
  // Reply certificate arrived from the bottom filter row; the primary
  // forwards it to the client machines (§4.2). All nodes cache it for
  // client retransmissions. For cross-cluster blocks only the initiator
  // cluster replies.
  auto cached = std::make_shared<ReplyCertMsg>(m);
  reply_cache_[m.block_digest] = cached;
  if (!engine_->IsPrimary()) return;
  if (!reply_owner_.count(m.block_digest)) return;
  SortedVec<NodeId> machines;
  for (const auto& [c, ts] : m.clients) machines.Insert(c);
  for (NodeId c : machines) Send(c, cached);
}

// ------------------------------------------------- cross-cluster common

bool OrderingNode::IsCross(const FlowKey& key) const {
  return key.collection.members.size() > 1 || key.shards.size() > 1;
}

std::vector<int> OrderingNode::InvolvedClusters(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  std::vector<int> out;
  for (EnterpriseId e : c.members.Members()) {
    for (ShardId s : shards) {
      out.push_back(dir_->ClusterIdOf(e, s));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int OrderingNode::CoordinatorClusterOf(
    const CollectionId& c, const std::vector<ShardId>& shards) const {
  ShardId s = shards.empty() ? 0 : *std::min_element(shards.begin(),
                                                     shards.end());
  EnterpriseId e = dir_->params.designated_coordinator
                       ? dir_->CoordinatorEnterpriseOf(c, s)
                       : cfg_.enterprise;
  if (c.members.size() == 1) e = c.members.First();
  return dir_->ClusterIdOf(e, s);
}

bool OrderingNode::IAmShardAssigner(const CollectionId& c,
                                    EnterpriseId initiator_enterprise) const {
  if (!c.members.Contains(cfg_.enterprise)) return false;
  if (c.members.size() == 1) return c.members.First() == cfg_.enterprise;
  if (dir_->params.designated_coordinator) {
    return dir_->CoordinatorEnterpriseOf(c, cfg_.shard) == cfg_.enterprise;
  }
  return cfg_.enterprise == initiator_enterprise;
}

std::vector<NodeId> OrderingNode::NodesOf(
    const std::vector<int>& clusters) const {
  std::vector<NodeId> out;
  for (int c : clusters) {
    const auto& ord = dir_->Cluster(c).ordering;
    out.insert(out.end(), ord.begin(), ord.end());
  }
  return out;
}

bool OrderingNode::HasCrossShardConflict(
    const BlockPtr& block, const std::vector<ShardId>& shards) const {
  auto intersects2 = [&shards](const std::vector<ShardId>& other) {
    std::vector<ShardId> inter;
    std::set_intersection(shards.begin(), shards.end(), other.begin(),
                          other.end(), std::back_inserter(inter));
    return inter.size() >= 2;
  };
  for (const auto& [d, s] : active_cross_) {
    if (intersects2(s)) return true;
  }
  for (const auto& d : deferred_cross_) {
    if (d.block == block) continue;  // re-admission of the head itself
    if (!d.block->txs.empty() && intersects2(d.block->txs.front().shards)) {
      return true;
    }
  }
  return false;
}

OrderingNode::XState& OrderingNode::StateFor(const Sha256Digest& d) {
  auto [it, fresh] = xstates_.try_emplace(d);
  XState& xs = it->second;
  if (fresh) live_xstates_.insert(d);  // live until FinishCross
  if (xs.started_at == 0) xs.started_at = now();
  xs.digest = d;
  return xs;
}

void OrderingNode::ArmCrossTimer(const Sha256Digest& d) {
  XState& xs = StateFor(d);
  if (xs.timer_armed || xs.done) return;
  xs.timer_armed = true;
  uint64_t token = next_cross_timer_++;
  cross_timer_digest_[token] = d;
  StartTimer(dir_->params.cross_timeout_us, kTagCross, token);
}

void OrderingNode::FinishCross(XState& xs, bool committed) {
  xs.done = true;
  live_xstates_.erase(xs.digest);
  if (xs.pinned) {
    xs.pinned = false;
    UnpinCross(xs.block);
  }
  if (!committed) aborted_blocks_++;
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster == cfg_.cluster_id) {
      own_pending_.erase(
          {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  // Release the shard reservation and admit deferred conflicting blocks.
  auto it = active_cross_.find(xs.digest);
  if (it != active_cross_.end()) {
    active_cross_.erase(it);
    if (!deferred_cross_.empty()) {
      std::vector<DeferredCross> retry;
      retry.swap(deferred_cross_);
      for (auto& d : retry) {
        // Hand the pin from the deferred entry to whatever holder the
        // restart lands in (new instance, or back onto the deferred
        // queue) — the Start call below re-pins.
        UnpinCross(d.block);
        if (dir_->params.family == ProtocolFamily::kCoordinator) {
          StartCoordinated(d.block);
        } else {
          StartFlattened(d.block);
        }
      }
    }
  }
  // Abort at the initiating cluster: retry the batch under a fresh block
  // (same transactions, new ID) after a deterministic per-cluster backoff
  // (§4.3.5: different timers per cluster prevent repeated deadlocks).
  if (!committed) {
    // Release slot claims and roll back our own assignment counters so
    // replacements can reuse the burned sequence numbers. Only this
    // block's own endorsement is released: after a §4.3.5 arbitration
    // switch the slot entry holds the rival winner's digest, and erasing
    // it would let a third claim sneak into a decided slot.
    for (const auto& [shard, a] : xs.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      auto claim = validated_digest_.find(slot);
      if (claim != validated_digest_.end() && claim->second == xs.digest) {
        validated_digest_.erase(claim);
      }
      auto locked = commit_locked_.find(slot);
      if (locked != commit_locked_.end() && locked->second == xs.digest) {
        commit_locked_.erase(locked);
      }
      if (a.cluster == cfg_.cluster_id && engine_->IsPrimary() &&
          next_seq_[a.alpha.collection] == a.alpha.n) {
        --next_seq_[a.alpha.collection];
      }
    }
  }
  if (!committed && xs.i_coordinate && xs.block != nullptr &&
      engine_->IsPrimary() && xs.retries < 8) {
    env()->metrics.Inc("cross.retry");
    uint64_t token = next_retry_++;
    retry_blocks_[token] = {xs.block, xs.retries + 1};
    PinCross(xs.block);
    SimTime backoff = 1000 * (cfg_.cluster_id + 1) * (xs.retries + 1);
    StartTimer(backoff, kTagRetry, token);
  }
  // §4.3.5 loser re-proposal is a flattened-mode mechanism: only there
  // does the commit-vote lock guarantee a slot-losing rival can never
  // commit, making its abort-and-requeue safe. In the coordinator
  // family a slot collision is a duplicate redrive whose transactions
  // may ride in another live instance — requeueing would mint a third
  // copy and break exactly-once (the paxos-seed-32 scenario).
  if (committed && dir_->params.family == ProtocolFamily::kFlattened) {
    RequeueArbitrationLosers(xs);
  }
  // Only the certified outcome outlives the instance (§4.3.4 commit
  // queries); its votes would otherwise hold most of a long run's heap.
  xs.ReleaseVotes();
}

void OrderingNode::XState::ReleaseVotes() {
  // Move-assigning an empty container frees its storage; clear() would
  // keep the capacity.
  prepared_votes = {};
  abort_votes = {};
  prepared_clusters = {};
  accepts = {};
  commit_votes = {};
  assignment_votes = {};
  pending_fast_commit = nullptr;
  order_cert.sigs = std::vector<Signature>();
}

bool OrderingNode::XState::HoldsNoVotes() const {
  return prepared_votes.empty() && abort_votes.empty() &&
         prepared_clusters.empty() && accepts.empty() &&
         commit_votes.empty() && assignment_votes.empty() &&
         pending_fast_commit == nullptr && order_cert.sigs.empty();
}

void OrderingNode::RequeueArbitrationLosers(const XState& winner) {
  if (winner.assignments.empty()) return;
  // Copy the winner's contested slots first: aborting a loser below can
  // mutate xstates_ (deferred re-admission inserts fresh instances),
  // which would invalidate references into the table.
  const Sha256Digest winner_digest = winner.digest;
  std::vector<Slot> slots;
  slots.reserve(winner.assignments.size());
  for (const auto& [shard, a] : winner.assignments) {
    slots.push_back(
        {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
  }
  // Only live instances can lose. live_xstates_ is a hashed container —
  // collect matches, then order the losers by digest so the abort (and
  // retry) schedule is deterministic.
  std::vector<Sha256Digest> losers;
  for (const Sha256Digest& d : live_xstates_) {
    if (d == winner_digest) continue;
    const XState& rival = xstates_.find(d)->second;
    for (const auto& [shard, a] : rival.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        losers.push_back(d);
        break;
      }
    }
  }
  std::sort(losers.begin(), losers.end());
  for (const Sha256Digest& d : losers) {
    auto it = xstates_.find(d);
    if (it == xstates_.end() || it->second.done) continue;
    env()->metrics.Inc("cross.arbitration_loser");
    if (it->second.block != nullptr) {
      for (const Transaction& tx : it->second.block->txs) {
        arbitration_loser_txs_.insert({tx.client, tx.client_ts});
      }
    }
    // The winner holds the slot, and its commit-vote majorities keep it
    // locked at a local majority of every involved cluster — the loser
    // can never commit, so its transactions can safely go back through
    // the retry machinery (the pin in pending_cross_ rides along, which
    // is what keeps re-admission exactly-once).
    FinishCross(it->second, /*committed=*/false);
  }
}

void OrderingNode::RunRetry(uint64_t token) {
  auto it = retry_blocks_.find(token);
  if (it == retry_blocks_.end()) return;
  auto [old_block, retries] = it->second;
  retry_blocks_.erase(it);
  // The retry entry's pin moves to the fresh block's holder below.
  UnpinCross(old_block);
  // Exactly-once: drop transactions that committed meanwhile. An aborted
  // instance can share requests with the block that beat it — a §4.3.5
  // arbitration loser that was a duplicate admission of the winner, or a
  // redrive whose original finally landed — and re-proposing those would
  // commit them twice (committed_requests_ is the permanent record).
  std::vector<Transaction> txs;
  txs.reserve(old_block->txs.size());
  for (const Transaction& tx : old_block->txs) {
    if (!committed_requests_.Contains({tx.client, tx.client_ts})) {
      txs.push_back(tx);
    }
  }
  if (txs.empty()) {
    env()->metrics.Inc("cross.retry_settled");
    return;
  }
  const Transaction& probe = txs.front();
  BlockPtr fresh = MakeBlock(FlowKey{probe.collection, probe.shards},
                             std::move(txs),
                             static_cast<uint32_t>(retries));
  XState& xs = StateFor(fresh->Digest());
  xs.retries = retries;
  if (dir_->params.family == ProtocolFamily::kCoordinator) {
    StartCoordinated(fresh);
  } else {
    StartFlattened(fresh);
  }
}

void OrderingNode::RecordOutcome(XState& xs, const CommitCertificate& cert,
                                 bool abort) {
  xs.outcome_cert = cert;
  xs.outcome_known = true;
  xs.outcome_abort = abort;
}

void OrderingNode::RedriveCross(XState& xs) {
  if (xs.done || xs.block == nullptr || !xs.i_coordinate ||
      !engine_->IsPrimary()) {
    return;
  }
  // §4.3.5: if one of our claimed slots has meanwhile committed under a
  // different block (learned via votes or state transfer), this instance
  // lost its arbitration and can never commit — the winner's commit-vote
  // majorities hold the slot locked. Abort into the retry machinery
  // instead of re-driving a dead claim forever.
  for (const auto& [shard, a] : xs.assignments) {
    if (a.cluster != cfg_.cluster_id) continue;
    ShardRef ref{a.alpha.collection, a.alpha.shard};
    if (exec_.ledger().HeadOf(ref) < a.alpha.n) continue;
    for (size_t i : exec_.ledger().ChainOf(ref)) {
      const DagLedger::Entry& e = exec_.ledger().entry(i);
      if (e.alpha.n != a.alpha.n) continue;
      if (e.block->Digest() != xs.digest) {
        env()->metrics.Inc("cross.arbitration_backoff");
        FinishCross(xs, /*committed=*/false);
        return;
      }
      break;
    }
  }
  env()->metrics.Inc("cross.redrive");
  if (dir_->params.family == ProtocolFamily::kFlattened) {
    auto prop = std::make_shared<FProposeMsg>();
    prop->initiator_cluster = cfg_.cluster_id;
    prop->block = xs.block;
    prop->block_digest = xs.digest;
    prop->sig = env()->keystore.Sign(id(), xs.digest);
    prop->wire_bytes = 128 + xs.block->WireSize();
    for (int c : xs.involved) {
      for (NodeId n : dir_->Cluster(c).ordering) {
        if (n != id()) Send(n, prop);
      }
    }
    ResendCrossVotes(xs);
  } else if (xs.order_cert_known) {
    auto prep = std::make_shared<XPrepareMsg>();
    prep->coord_cluster = cfg_.cluster_id;
    prep->block = xs.block;
    prep->block_digest = xs.digest;
    prep->coord_cert = xs.order_cert;
    prep->wire_bytes =
        160 + xs.block->WireSize() + prep->coord_cert.WireSize();
    prep->sig_verify_ops =
        static_cast<uint16_t>(prep->coord_cert.sigs.size());
    for (int c : xs.involved) {
      if (c == cfg_.cluster_id) continue;
      Multicast(dir_->Cluster(c).ordering, prep);
    }
  }
}

void OrderingNode::HandleQuery(NodeId from, const QueryMsg& m) {
  auto it = xstates_.find(m.block_digest);
  if (it != xstates_.end() && it->second.done && it->second.outcome_known &&
      it->second.block != nullptr) {
    // §4.3.4: answer with the certified outcome. The asker lost the
    // original commit (crash, partition, drop); without this resend its
    // chain — and every collection order-dependent on it — stalls
    // forever.
    const XState& xs = it->second;
    env()->metrics.Inc("cross.query_answered");
    auto cm = std::make_shared<XCommitMsg>();
    cm->coord_cluster = cfg_.cluster_id;
    cm->block = xs.block;
    cm->block_digest = m.block_digest;
    cm->coord_cert = xs.outcome_cert;
    cm->is_abort = xs.outcome_abort;
    if (xs.outcome_abort) cm->type = MsgType::kXAbort;
    for (const auto& [shard, a] : xs.assignments) {
      cm->assignments.push_back(a);
    }
    cm->wire_bytes = 128 + cm->coord_cert.WireSize() +
                     static_cast<uint32_t>(cm->assignments.size()) * 48;
    cm->sig_verify_ops = static_cast<uint16_t>(cm->coord_cert.sigs.size());
    Send(from, cm);
    return;
  }
  // If we have no record or it is still pending, count suspicion toward
  // the primary (a local-majority of queries triggers a view change,
  // §4.3.4).
  env()->metrics.Inc("cross.query_pending");
}

// ------------------------------------- checkpointed state transfer

void OrderingNode::ScheduleStateSync(SimTime delay) {
  if (!dir_->params.state_transfer || state_sync_pending_) return;
  state_sync_pending_ = true;
  StartTimer(delay, kTagStateSync, 0);
}

void OrderingNode::SendStateRequest() {
  size_t n = cfg_.ordering.size();
  if (n <= 1) return;
  NodeId peer = id();
  for (size_t i = 0; i < n && peer == id(); ++i) {
    peer = cfg_.ordering[(static_cast<size_t>(index_) + 1 +
                          static_cast<size_t>(state_sync_rr_++)) % n];
  }
  if (peer == id()) return;
  auto req = std::make_shared<StateRequestMsg>();
  for (const auto& [ref, chain] : exec_.ledger().chains()) {
    req->heads.push_back(StateRequestMsg::ChainHead{
        ref.collection, ref.shard, exec_.ledger().HeadOf(ref)});
  }
  req->frontier = engine_->LastDelivered();
  req->wire_bytes =
      48 + static_cast<uint32_t>(req->heads.size()) * 16;
  env()->metrics.Inc("order.state_requested");
  Send(peer, req);
}

void OrderingNode::HandleStateRequest(NodeId from, const StateRequestMsg& m) {
  if (!dir_->params.state_transfer) return;
  std::map<ShardRef, SeqNo> req_heads;
  for (const auto& h : m.heads) {
    req_heads[ShardRef{h.collection, h.shard}] = h.head;
  }
  // Chunked like the other catch-up protocols (fills: 16 slots, Fabric
  // fetch: 8 blocks): at most kMaxEntries entries per reply, filled
  // round-robin ACROSS chains — oldest missing entry of each chain
  // first — so a long chain cannot starve the chain its γ dependencies
  // point at. The requester re-requests with updated heads until a
  // round installs nothing new.
  constexpr size_t kMaxEntries = 256;
  auto rep = std::make_shared<StateReplyMsg>();
  rep->ckpt = engine_->stable_checkpoint();
  const DagLedger& led = exec_.ledger();
  uint64_t bytes = 64 + rep->ckpt.WireSize();
  size_t verify_ops = rep->ckpt.sigs.size();
  // Per-chain cursors into the missing suffix (chain[i] holds the entry
  // committed at sequence number i + 1, so the requester's gap starts
  // at index `head`).
  std::vector<std::pair<const std::vector<size_t>*, size_t>> cursors;
  for (const auto& [ref, chain] : led.chains()) {
    auto it = req_heads.find(ref);
    SeqNo have = it == req_heads.end() ? 0 : it->second;
    if (have < chain.size()) cursors.emplace_back(&chain, have);
  }
  bool any = true;
  while (any && rep->entries.size() < kMaxEntries) {
    any = false;
    for (auto& [chain, i] : cursors) {
      if (i >= chain->size() || rep->entries.size() >= kMaxEntries) {
        continue;
      }
      const DagLedger::Entry& e = led.entry((*chain)[i++]);
      rep->entries.push_back(
          StateReplyMsg::Entry{e.block, e.cert, e.alpha, e.gamma});
      bytes += 64 + e.block->WireSize() + e.cert.WireSize();
      verify_ops += e.cert.sigs.size();
      any = true;
    }
  }
  // Certified-but-wedged tail: blocks this replica committed whose chain
  // predecessor is still missing live outside the installed chains. A
  // requester that recovers while a chain is globally wedged would never
  // see them in any later sync round (once the wedge clears, the tail
  // block has no successor to reveal the gap) — include them, pending
  // the same predecessors on the requester's side.
  for (const auto& p : exec_.pending()) {
    if (rep->entries.size() >= kMaxEntries) break;
    auto it = req_heads.find(ShardRef{p.alpha.collection, p.alpha.shard});
    SeqNo have = it == req_heads.end() ? 0 : it->second;
    if (p.alpha.n <= have) continue;
    rep->entries.push_back(
        StateReplyMsg::Entry{p.block, p.cert, p.alpha, p.gamma});
    bytes += 64 + p.block->WireSize() + p.cert.WireSize();
    verify_ops += p.cert.sigs.size();
  }
  if (rep->entries.empty() && rep->ckpt.slot <= m.frontier) return;
  rep->requester = m.requester;  // echo for firewall-routed executor pulls
  rep->wire_bytes = static_cast<uint32_t>(
      std::min<uint64_t>(bytes, UINT32_MAX));
  rep->sig_verify_ops =
      static_cast<uint16_t>(std::min<size_t>(verify_ops, 65535));
  env()->metrics.Inc("order.state_served");
  env()->metrics.Inc("order.state_blocks_served", rep->entries.size());
  Send(from, rep);
}

bool OrderingNode::VerifyTransferredEntry(
    const StateReplyMsg::Entry& e) const {
  return VerifyTransferredLedgerEntry(*dir_, env()->keystore, e);
}

bool OrderingNode::InstallTransferredBlock(const StateReplyMsg::Entry& e) {
  for (const Transaction& tx : e.block->txs) {
    committed_requests_.Put({tx.client, tx.client_ts}, 0);
  }
  auto& st = state_[e.alpha.collection];
  st = std::max(st, e.alpha.n);
  // Re-execution rebuilds the multi-versioned store deterministically;
  // Submit defers entries whose chain predecessor or γ dependencies have
  // not landed yet (transfers interleave chains arbitrarily) and dedups
  // entries already queued by an earlier chunk.
  Status s = exec_.Submit(
      e.block, e.cert, e.alpha, e.gamma,
      [this](const ExecutorCore::ExecResult& res) {
        ChargeCpu(res.cpu_cost);
      });
  MaybeWatchExecWedge();
  if (s.code() == StatusCode::kAlreadyExists) return false;
  if (!s.ok()) {
    env()->metrics.Inc("order.state_install_error");
    return false;
  }
  committed_blocks_++;
  committed_txs_ += e.block->tx_count();
  env()->metrics.Inc("order.state_block_installed");
  return true;
}

void OrderingNode::HandleStateReply(NodeId /*from*/, const StateReplyMsg& m) {
  if (!dir_->params.state_transfer) return;
  size_t installed = 0;
  for (const auto& e : m.entries) {
    ShardRef ref{e.alpha.collection, e.alpha.shard};
    if (e.alpha.n <= exec_.ledger().HeadOf(ref)) continue;  // have it
    if (!VerifyTransferredEntry(e)) {
      env()->metrics.Inc("order.bad_state_block");
      continue;
    }
    if (InstallTransferredBlock(e)) ++installed;
  }
  if (m.ckpt.slot > engine_->LastDelivered()) {
    if (!engine_->InstallCheckpoint(m.ckpt)) {
      env()->metrics.Inc("order.bad_state_ckpt");
    }
  }
  if (installed > 0) {
    // Another round in case the serving peer itself was behind; it
    // no-ops (and goes unanswered) once everyone agrees.
    ScheduleStateSync(dir_->params.consensus_timeout_us);
  }
}

void OrderingNode::ReplayExecPushes() {
  if (!cfg_.SeparatedExecution() || pending_exec_push_.empty()) return;
  env()->metrics.Inc("order.exec_push_replayed", pending_exec_push_.size());
  for (const auto& [token, p] : pending_exec_push_) {
    if (reply_cache_.count(p.msg->cert.block_digest)) continue;
    if (cfg_.HasFirewall()) {
      Multicast(cfg_.filter_rows.front(), p.msg);
    } else {
      Multicast(cfg_.execution, p.msg);
    }
  }
  pending_exec_push_.clear();
}

}  // namespace qanaat
