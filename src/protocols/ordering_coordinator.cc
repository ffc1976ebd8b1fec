// Coordinator-based cross-cluster consensus (paper §4.3, Fig 5):
//   prepare   — the coordinator cluster internally orders the block, then
//               sends a cluster-signed PREPARE to every involved cluster;
//   prepared  — involved clusters either validate (same data shard) or
//               internally order (different shard, assigning their own
//               ⟨α, γ⟩) and answer PREPARED;
//   commit    — with prepared evidence from every involved cluster, the
//               coordinator runs internal consensus on the decision and
//               multicasts COMMIT; every cluster appends and executes.

#include <algorithm>

#include "protocols/ordering_node.h"

namespace qanaat {

void OrderingNode::StartCoordinated(const BlockPtr& block) {
  const Transaction& probe = block->txs.front();
  int coord = CoordinatorClusterOf(probe.collection, probe.shards);
  if (coord != cfg_.cluster_id) {
    // We received requests for a flow another cluster coordinates (only
    // possible in non-designated mode); hand the whole batch over.
    for (const auto& tx : block->txs) {
      auto req = std::make_shared<RequestMsg>();
      req->tx = tx;
      req->wire_bytes = 64 + tx.WireSize();
      Send(dir_->Cluster(coord).InitialPrimary(), req);
    }
    return;
  }

  // Concurrency control (§4.3.2): defer blocks that intersect an active
  // cross-shard transaction in >= 2 shards.
  if (probe.shards.size() > 1) {
    if (HasCrossShardConflict(block, probe.shards)) {
      deferred_cross_.push_back(DeferredCross{block});
      PinCross(block);
      env()->metrics.Inc("cross.deferred_conflict");
      return;
    }
    active_cross_[block->Digest()] = probe.shards;
  }

  XState& xs = StateFor(block->Digest());
  xs.block = block;
  xs.involved = InvolvedClusters(probe.collection, probe.shards);
  xs.is_cross_enterprise = probe.collection.members.size() > 1;
  xs.is_cross_shard = probe.shards.size() > 1;
  xs.i_coordinate = true;
  if (!xs.pinned) {
    xs.pinned = true;
    PinCross(block);
  }
  xs.assignments[block->id.alpha.shard] =
      ShardAssignment{cfg_.cluster_id, block->id.alpha, block->id.gamma};
  own_pending_.insert({ShardRef{block->id.alpha.collection,
                                block->id.alpha.shard},
                       block->id.alpha.n});

  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXOrder;
  v.block = block;
  v.block_digest = xs.digest;
  v.assignments = {xs.assignments[block->id.alpha.shard]};
  engine_->Propose(v);
  ArmCrossTimer(xs.digest);
}

void OrderingNode::OnXOrderDecided(uint64_t slot, const ConsensusValue& v) {
  XState& xs = StateFor(v.block_digest);
  xs.block = v.block;
  const Transaction& probe = v.block->txs.front();
  xs.involved = InvolvedClusters(probe.collection, probe.shards);
  xs.is_cross_enterprise = probe.collection.members.size() > 1;
  xs.is_cross_shard = probe.shards.size() > 1;
  for (const auto& a : v.assignments) {
    xs.assignments[a.alpha.shard] = a;
    if (a.cluster == cfg_.cluster_id) {
      own_pending_.insert(
          {ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n});
    }
  }
  int coord = CoordinatorClusterOf(probe.collection, probe.shards);
  xs.i_coordinate = (coord == cfg_.cluster_id);

  CommitCertificate order_cert =
      MakeCert(slot, v.block_digest, ConsensusValue::Kind::kXOrder);
  // A lagging replica can decide its kXOrder after it learned the
  // outcome. The messages below still go out, but a finished instance
  // keeps no votes.
  if (!xs.done) {
    if (xs.i_coordinate) xs.prepared_clusters.Insert(cfg_.cluster_id);
    xs.order_cert = order_cert;
    xs.order_cert_known = true;
  }

  if (xs.i_coordinate) {
    // Phase 1 done: the coordinator cluster agreed on the order. The
    // primary sends PREPARE (signed by local-majority: the commit
    // certificate of the internal consensus) to all involved clusters.
    if (!engine_->IsPrimary()) return;
    auto prep = std::make_shared<XPrepareMsg>();
    prep->coord_cluster = cfg_.cluster_id;
    prep->block = v.block;
    prep->block_digest = v.block_digest;
    prep->coord_cert = std::move(order_cert);
    prep->wire_bytes = 160 + v.block->WireSize() + prep->coord_cert.WireSize();
    prep->sig_verify_ops =
        static_cast<uint16_t>(prep->coord_cert.sigs.size());
    for (int c : xs.involved) {
      if (c == cfg_.cluster_id) continue;
      Multicast(dir_->Cluster(c).ordering, prep);
    }
    MaybeStartCommitPhase(xs);  // single-cluster edge case
    return;
  }

  // We are an involved (non-coordinator) cluster that internally ordered
  // the transaction on its own shard. The primary reports PREPARED with
  // the locally assigned ID to the coordinator cluster, and — for
  // cross-shard cross-enterprise transactions — to every cluster that
  // maintains the same data shard as us (§4.3.3).
  if (!engine_->IsPrimary()) return;
  auto pd = std::make_shared<XPreparedMsg>();
  pd->from_cluster = cfg_.cluster_id;
  pd->block_digest = v.block_digest;
  if (!v.assignments.empty()) {
    pd->has_assignment = true;
    pd->assignment = v.assignments.front();
  }
  pd->is_cluster_cert = true;
  pd->cluster_cert = std::move(order_cert);
  pd->wire_bytes = 160 + pd->cluster_cert.WireSize();
  pd->sig_verify_ops = static_cast<uint16_t>(pd->cluster_cert.sigs.size());
  Multicast(dir_->Cluster(coord).ordering, pd);
  if (xs.is_cross_enterprise && xs.is_cross_shard) {
    for (int c : xs.involved) {
      const ClusterConfig& cc = dir_->Cluster(c);
      if (c != cfg_.cluster_id && cc.shard == cfg_.shard) {
        Multicast(cc.ordering, pd);
      }
    }
  }
  ArmCrossTimer(v.block_digest);
}

void OrderingNode::HandleXPrepare(NodeId from, const XPrepareMsg& m) {
  const ClusterConfig& coord = dir_->Cluster(m.coord_cluster);
  // Validate provenance: a cluster-signed message from the coordinator.
  if (m.coord_cert.block_digest != m.block_digest ||
      m.block->Digest() != m.block_digest ||
      !m.coord_cert.ValidFrom(env()->keystore, dir_->params.CertQuorum(),
                              coord.ordering)) {
    env()->metrics.Inc("cross.bad_prepare");
    return;
  }
  (void)from;
  XState& xs = StateFor(m.block_digest);
  if (xs.done) return;
  xs.block = m.block;
  const Transaction& probe = m.block->txs.front();
  xs.involved = InvolvedClusters(probe.collection, probe.shards);
  xs.is_cross_enterprise = probe.collection.members.size() > 1;
  xs.is_cross_shard = probe.shards.size() > 1;
  xs.assignments[m.block->id.alpha.shard] = ShardAssignment{
      m.coord_cluster, m.block->id.alpha, m.block->id.gamma};
  ArmCrossTimer(m.block_digest);

  if (coord.shard == cfg_.shard) {
    // Same data shard as the coordinator (intra-shard cross-enterprise,
    // or the coordinator-shard replica in the cross-shard cross-
    // enterprise protocol): validate the ID and answer PREPARED with an
    // individual signature — no internal consensus needed (§4.3.1).
    const LocalPart& alpha = m.block->id.alpha;
    ShardRef ref{alpha.collection, alpha.shard};
    auto nack = [&]() {
      auto msg = std::make_shared<XPreparedMsg>();
      msg->from_cluster = cfg_.cluster_id;
      msg->block_digest = m.block_digest;
      msg->abort = true;
      msg->sig = env()->keystore.Sign(id(), m.block_digest);
      Send(coord.InitialPrimary(), msg);
    };
    if (own_pending_.count({ref, alpha.n})) {
      // Our own cluster has an uncommitted block claiming this sequence
      // number (optimistic mode): refuse, so at most one coordinator can
      // assemble prepared evidence.
      env()->metrics.Inc("cross.conflict_nack");
      nack();
      return;
    }
    auto claim = validated_digest_.find({ref, alpha.n});
    if (claim != validated_digest_.end()) {
      if (claim->second != m.block_digest) {
        // Distinct from the live-rivalry nack above: the slot is already
        // endorsed for another block, so this claim arrived too late.
        env()->metrics.Inc("cross.conflict_stale");
        nack();
        return;
      }
      // Re-vote for the same block (retransmission) falls through.
    } else if (alpha.n <= CommittedHeadOf(alpha.collection)) {
      env()->metrics.Inc("cross.stale_prepare");
      nack();
      return;
    } else {
      validated_digest_[{ref, alpha.n}] = m.block_digest;
    }
    auto pd = std::make_shared<XPreparedMsg>();
    pd->from_cluster = cfg_.cluster_id;
    pd->block_digest = m.block_digest;
    pd->sig = env()->keystore.Sign(id(), m.block_digest);
    Send(coord.InitialPrimary(), pd);
    return;
  }

  // Different shard: only the assigner cluster of this shard runs
  // consensus to assign its own ID (§4.3.2, §4.3.3); other enterprises'
  // clusters wait for the PREPARED of the same-shard assigner cluster.
  if (!IAmShardAssigner(probe.collection, coord.enterprise)) return;
  if (!engine_->IsPrimary()) return;
  if (xs.assign_proposed) {
    // Duplicate / re-driven PREPARE: never assign a second ⟨α, γ⟩ —
    // re-send the PREPARED if the first assignment already decided.
    auto mine = xs.assignments.find(cfg_.shard);
    if (xs.order_cert_known && mine != xs.assignments.end() &&
        mine->second.cluster == cfg_.cluster_id) {
      auto pd = std::make_shared<XPreparedMsg>();
      pd->from_cluster = cfg_.cluster_id;
      pd->block_digest = m.block_digest;
      pd->has_assignment = true;
      pd->assignment = mine->second;
      pd->is_cluster_cert = true;
      pd->cluster_cert = xs.order_cert;
      pd->wire_bytes = 160 + pd->cluster_cert.WireSize();
      pd->sig_verify_ops =
          static_cast<uint16_t>(pd->cluster_cert.sigs.size());
      Multicast(coord.ordering, pd);
    }
    return;
  }
  xs.assign_proposed = true;

  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXOrder;
  v.block = m.block;
  v.block_digest = m.block_digest;
  ShardAssignment mine;
  mine.cluster = cfg_.cluster_id;
  mine.alpha = NextAlpha(probe.collection);
  mine.gamma = CaptureGamma(probe.collection);
  v.assignments = {mine};
  engine_->Propose(v);
}

void OrderingNode::HandleXPrepared(NodeId from, const XPreparedMsg& m) {
  XState& xs = StateFor(m.block_digest);
  if (xs.done) return;
  const ClusterConfig& sender = dir_->Cluster(m.from_cluster);

  if (m.is_cluster_cert) {
    // A cluster-level PREPARED from a primary that ran internal
    // consensus.
    if (!m.cluster_cert.ValidFrom(env()->keystore,
                                  dir_->params.CertQuorum(),
                                  sender.ordering)) {
      env()->metrics.Inc("cross.bad_prepared_cert");
      return;
    }
    if (m.has_assignment) {
      xs.assignments[m.assignment.alpha.shard] = m.assignment;
    }
    if (m.abort) {
      xs.prepared_clusters.clear();  // force abort path
    }
    xs.prepared_clusters.Insert(m.from_cluster);
    xs.prepared_votes[m.from_cluster].Insert(from);

    // Cross-shard cross-enterprise: a non-initiator cluster that shares
    // the sender's shard validates the assignment and reports its own
    // PREPARED votes to the coordinator (§4.3.3).
    if (!xs.i_coordinate && xs.block != nullptr &&
        sender.shard == cfg_.shard && sender.enterprise != cfg_.enterprise) {
      int coord = CoordinatorClusterOf(xs.block->txs.front().collection,
                                       AllShards(xs));
      auto pd = std::make_shared<XPreparedMsg>();
      pd->from_cluster = cfg_.cluster_id;
      pd->block_digest = m.block_digest;
      pd->sig = env()->keystore.Sign(id(), m.block_digest);
      Send(dir_->Cluster(coord).InitialPrimary(), pd);
    }
  } else {
    // An individual validation (or abort) vote.
    if (m.sig.signer != from ||
        !env()->keystore.Verify(m.sig, m.block_digest)) {
      env()->metrics.Inc("cross.bad_prepared_sig");
      return;
    }
    if (m.abort) {
      auto& nacks = xs.abort_votes[m.from_cluster];
      nacks.Insert(from);
      // f+1 abort votes guarantee one correct node rejected the ID.
      if (xs.i_coordinate && !xs.abort_started && !xs.commit_started &&
          nacks.size() >= static_cast<size_t>(dir_->params.f) + 1 &&
          engine_->IsPrimary()) {
        xs.abort_started = true;
        ConsensusValue v;
        v.kind = ConsensusValue::Kind::kXAbort;
        v.block = xs.block;
        v.block_digest = xs.digest;
        engine_->Propose(v);
      }
      return;
    }
    auto& votes = xs.prepared_votes[m.from_cluster];
    votes.Insert(from);
    if (votes.size() >= dir_->params.LocalMajority()) {
      xs.prepared_clusters.Insert(m.from_cluster);
    }
  }
  if (xs.i_coordinate) MaybeStartCommitPhase(xs);
}

void OrderingNode::MaybeStartCommitPhase(XState& xs) {
  if (xs.commit_started || xs.abort_started || xs.done ||
      xs.block == nullptr) {
    return;
  }
  if (!engine_->IsPrimary()) return;
  // Every involved cluster must have prepared (the coordinator cluster
  // itself prepared when its internal consensus decided).
  for (int c : xs.involved) {
    if (!xs.prepared_clusters.Contains(c)) return;
  }
  // All shards must have an assignment.
  const Transaction& probe = xs.block->txs.front();
  for (ShardId s : probe.shards) {
    if (!xs.assignments.count(s)) return;
  }
  xs.commit_started = true;

  ConsensusValue v;
  v.kind = ConsensusValue::Kind::kXCommit;
  v.block = xs.block;
  v.block_digest = xs.digest;
  for (const auto& [shard, a] : xs.assignments) v.assignments.push_back(a);
  engine_->Propose(v);
}

void OrderingNode::OnXCommitDecided(uint64_t slot, const ConsensusValue& v,
                                    bool is_abort) {
  XState& xs = StateFor(v.block_digest);
  if (xs.done) return;
  xs.block = v.block;
  for (const auto& a : v.assignments) {
    xs.assignments[a.alpha.shard] = a;
  }

  CommitCertificate cert =
      MakeCert(slot, v.block_digest,
               is_abort ? ConsensusValue::Kind::kXAbort
                        : ConsensusValue::Kind::kXCommit);

  // The coordinator primary disseminates COMMIT to every node of all
  // involved clusters (§4.3.1).
  if (engine_->IsPrimary()) {
    auto cm = std::make_shared<XCommitMsg>();
    cm->coord_cluster = cfg_.cluster_id;
    cm->block = v.block;
    cm->block_digest = v.block_digest;
    cm->coord_cert = cert;
    cm->is_abort = is_abort;
    for (const auto& a : v.assignments) cm->assignments.push_back(a);
    cm->wire_bytes = 128 + cm->coord_cert.WireSize() +
                     static_cast<uint32_t>(cm->assignments.size()) * 48;
    // §4.3.1: cross-enterprise COMMITs embed the prepared messages from
    // a local-majority of every involved cluster as evidence; receivers
    // verify them (charged via sig_verify_ops) and the wire grows.
    size_t evidence = 0;
    if (xs.is_cross_enterprise) {
      evidence = dir_->params.LocalMajority() *
                 (xs.involved.size() > 0 ? xs.involved.size() - 1 : 0);
      cm->wire_bytes += static_cast<uint32_t>(evidence) * 20;
    }
    cm->sig_verify_ops = static_cast<uint16_t>(
        cm->coord_cert.sigs.size() + evidence);
    if (is_abort) cm->type = MsgType::kXAbort;
    for (int c : xs.involved) {
      if (c == cfg_.cluster_id) continue;
      Multicast(dir_->Cluster(c).ordering, cm);
    }
  }

  RecordOutcome(xs, cert, is_abort);
  if (!is_abort) {
    auto it = xs.assignments.find(cfg_.shard);
    if (it != xs.assignments.end()) {
      CommitBlock(xs.block, cert, it->second.alpha, it->second.gamma,
                  /*reply_from_here=*/true);
    }
  }
  FinishCross(xs, !is_abort);
}

void OrderingNode::HandleXCommit(NodeId /*from*/, const XCommitMsg& m) {
  XState& xs = StateFor(m.block_digest);
  if (xs.done) return;
  const ClusterConfig& coord = dir_->Cluster(m.coord_cluster);
  if (m.coord_cert.block_digest != m.block_digest ||
      !m.coord_cert.ValidFrom(env()->keystore, dir_->params.CertQuorum(),
                              coord.ordering)) {
    env()->metrics.Inc("cross.bad_commit");
    return;
  }
  xs.block = m.block;
  if (m.is_abort) {
    // Release the slot claims so a replacement block can reuse the
    // sequence numbers — but only the aborted block's own endorsements;
    // after a §4.3.5 arbitration a slot entry may already belong to the
    // rival winner.
    for (const auto& a : m.assignments) {
      Slot slot{ShardRef{a.alpha.collection, a.alpha.shard}, a.alpha.n};
      auto claim = validated_digest_.find(slot);
      if (claim != validated_digest_.end() &&
          claim->second == m.block_digest) {
        validated_digest_.erase(claim);
      }
    }
    RecordOutcome(xs, m.coord_cert, true);
    FinishCross(xs, false);
    return;
  }
  for (const auto& a : m.assignments) {
    xs.assignments[a.alpha.shard] = a;
  }
  RecordOutcome(xs, m.coord_cert, false);
  auto it = xs.assignments.find(cfg_.shard);
  if (it != xs.assignments.end()) {
    CommitBlock(m.block, m.coord_cert, it->second.alpha, it->second.gamma,
                /*reply_from_here=*/false);
  }
  FinishCross(xs, true);
}

}  // namespace qanaat
