#include "workload/smallbank.h"

#include <algorithm>

namespace qanaat {

SmallBankWorkload::SmallBankWorkload(const DataModel* model,
                                     const Directory* dir,
                                     WorkloadParams params, Rng rng)
    : SmallBankWorkload(model, dir, params, rng,
                        Zipf(params.accounts_per_shard, params.zipf_s)) {}

SmallBankWorkload::SmallBankWorkload(const DataModel* model,
                                     const Directory* dir,
                                     WorkloadParams params, Rng rng,
                                     const Zipf& zipf)
    : model_(model), dir_(dir), params_(params), rng_(rng), zipf_(zipf) {
  for (const auto& c : model_->Collections()) {
    if (c.members.size() > 1) shared_collections_.push_back(c);
  }
}

uint64_t SmallBankWorkload::KeyOn(ShardId shard, int shard_count) {
  // Zipf-ranked account, then mapped onto the shard's residue class.
  uint64_t rank = zipf_.Sample(rng_);
  return rank * static_cast<uint64_t>(shard_count) + shard;
}

Transaction SmallBankWorkload::MakeInternal(NodeId client, uint64_t ts) {
  Transaction tx;
  tx.client = client;
  tx.client_ts = ts;
  auto e = static_cast<EnterpriseId>(
      rng_.Uniform(static_cast<uint64_t>(model_->enterprise_count())));
  tx.initiator = e;
  tx.collection = CollectionId(EnterpriseSet::Single(e));
  int sc = model_->ShardCountOf(tx.collection);
  auto shard = static_cast<ShardId>(rng_.Uniform(sc));
  tx.shards = {shard};
  // sendPayment: debit src, credit dst (same shard).
  uint64_t src = KeyOn(shard, sc);
  uint64_t dst = KeyOn(shard, sc);
  int64_t amount = 1 + static_cast<int64_t>(rng_.Uniform(100));
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, src, -amount, {}});
  tx.ops.push_back(TxOp{TxOp::Kind::kAdd, dst, amount, {}});
  if (rng_.NextDouble() < params_.dep_read_fraction &&
      !shared_collections_.empty()) {
    // Internal transaction consuming shared data (e.g. the supplier
    // reading order records): read an order-dependent collection at the
    // γ-captured version.
    std::vector<CollectionId> deps =
        model_->OrderDependenciesOf(tx.collection);
    if (!deps.empty()) {
      const CollectionId& dep = deps[rng_.Uniform(deps.size())];
      tx.ops.push_back(
          TxOp{TxOp::Kind::kReadDep, KeyOn(shard, sc), 0, dep});
    }
  }
  return tx;
}

Transaction SmallBankWorkload::MakeCross(NodeId client, uint64_t ts) {
  Transaction tx;
  tx.client = client;
  tx.client_ts = ts;
  int S = dir_->params.shards_per_enterprise;
  switch (params_.cross_kind) {
    case CrossKind::kIntraShardCrossEnterprise: {
      // A payment on one shard of a shared collection (Fig 7): "each
      // transaction is randomly initiated on a single data shard of a
      // data collection shared among multiple enterprises".
      const CollectionId& c =
          shared_collections_[rng_.Uniform(shared_collections_.size())];
      tx.collection = c;
      int sc = model_->ShardCountOf(c);
      auto shard = static_cast<ShardId>(rng_.Uniform(sc));
      tx.shards = {shard};
      tx.initiator = dir_->CoordinatorEnterpriseOf(c, shard);
      int64_t amount = 1 + static_cast<int64_t>(rng_.Uniform(100));
      tx.ops.push_back(
          TxOp{TxOp::Kind::kAdd, KeyOn(shard, sc), -amount, {}});
      tx.ops.push_back(
          TxOp{TxOp::Kind::kAdd, KeyOn(shard, sc), amount, {}});
      break;
    }
    case CrossKind::kCrossShardIntraEnterprise: {
      // A payment across two shards of a local collection (Fig 8).
      auto e = static_cast<EnterpriseId>(
          rng_.Uniform(static_cast<uint64_t>(model_->enterprise_count())));
      tx.initiator = e;
      tx.collection = CollectionId(EnterpriseSet::Single(e));
      int sc = model_->ShardCountOf(tx.collection);
      auto s1 = static_cast<ShardId>(rng_.Uniform(sc));
      auto s2 = static_cast<ShardId>(rng_.Uniform(sc));
      while (sc > 1 && s2 == s1) {
        s2 = static_cast<ShardId>(rng_.Uniform(sc));
      }
      tx.shards = {std::min(s1, s2), std::max(s1, s2)};
      if (s1 == s2) tx.shards = {s1};
      int64_t amount = 1 + static_cast<int64_t>(rng_.Uniform(100));
      tx.ops.push_back(TxOp{TxOp::Kind::kAdd, KeyOn(s1, sc), -amount, {}});
      tx.ops.push_back(TxOp{TxOp::Kind::kAdd, KeyOn(s2, sc), amount, {}});
      break;
    }
    case CrossKind::kCrossShardCrossEnterprise: {
      // A payment across two shards of a shared collection (Fig 9).
      const CollectionId& c =
          shared_collections_[rng_.Uniform(shared_collections_.size())];
      tx.collection = c;
      int sc = model_->ShardCountOf(c);
      auto s1 = static_cast<ShardId>(rng_.Uniform(sc));
      auto s2 = static_cast<ShardId>(rng_.Uniform(sc));
      while (sc > 1 && s2 == s1) {
        s2 = static_cast<ShardId>(rng_.Uniform(sc));
      }
      tx.shards = {std::min(s1, s2), std::max(s1, s2)};
      if (s1 == s2) tx.shards = {s1};
      tx.initiator = dir_->CoordinatorEnterpriseOf(c, tx.shards.front());
      int64_t amount = 1 + static_cast<int64_t>(rng_.Uniform(100));
      tx.ops.push_back(TxOp{TxOp::Kind::kAdd, KeyOn(s1, sc), -amount, {}});
      tx.ops.push_back(TxOp{TxOp::Kind::kAdd, KeyOn(s2, sc), amount, {}});
      break;
    }
  }
  (void)S;
  return tx;
}

Transaction SmallBankWorkload::Next(NodeId client, uint64_t ts) {
  if (rng_.NextDouble() < params_.cross_fraction &&
      (!shared_collections_.empty() ||
       params_.cross_kind == CrossKind::kCrossShardIntraEnterprise)) {
    return MakeCross(client, ts);
  }
  return MakeInternal(client, ts);
}

int SmallBankWorkload::TargetCluster(const Transaction& tx) const {
  ShardId s = *std::min_element(tx.shards.begin(), tx.shards.end());
  EnterpriseId e = tx.collection.members.size() > 1
                       ? dir_->CoordinatorEnterpriseOf(tx.collection, s)
                       : tx.collection.members.First();
  return dir_->ClusterIdOf(e, s);
}

}  // namespace qanaat
