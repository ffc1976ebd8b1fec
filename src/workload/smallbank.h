#ifndef QANAAT_WORKLOAD_SMALLBANK_H_
#define QANAAT_WORKLOAD_SMALLBANK_H_

#include <vector>

#include "collections/data_model.h"
#include "common/rng.h"
#include "ledger/transaction.h"
#include "protocols/context.h"

namespace qanaat {

/// Which cross-cluster dimension a workload stresses — the three
/// experiment families of §5.1–§5.3.
enum class CrossKind : uint8_t {
  kIntraShardCrossEnterprise = 0,  // Fig 7
  kCrossShardIntraEnterprise = 1,  // Fig 8
  kCrossShardCrossEnterprise = 2,  // Fig 9
};

/// Parameters of the (modified) SmallBank workload used throughout the
/// paper's evaluation: write-heavy sendPayment transactions performing
/// read-modify-writes on one or two keys of a data collection, with a
/// controllable fraction of cross-shard / cross-enterprise transactions
/// and Zipfian key selection (§5: uniform, s-value = 0 by default).
struct WorkloadParams {
  CrossKind cross_kind = CrossKind::kIntraShardCrossEnterprise;
  /// Fraction of transactions that are cross-cluster (the rest are
  /// internal intra-shard transactions on the local collection).
  double cross_fraction = 0.1;
  /// Zipfian skew for key selection within a collection shard (§5.7).
  double zipf_s = 0.0;
  /// Accounts per collection shard.
  uint64_t accounts_per_shard = 100000;
  /// Fraction of internal transactions that read an order-dependent
  /// collection (exercises γ-capture reads).
  double dep_read_fraction = 0.05;
};

/// Generates SmallBank transactions for a Qanaat deployment.
///
/// Internal transactions: sendPayment between two accounts of one shard
/// of the initiating enterprise's local collection. Cross-enterprise
/// transactions target a shared (intermediate or root) data collection;
/// cross-shard transactions touch accounts on two distinct shards.
class SmallBankWorkload {
 public:
  SmallBankWorkload(const DataModel* model, const Directory* dir,
                    WorkloadParams params, Rng rng);
  /// As above, with a key distribution built once for many workloads;
  /// `zipf` must equal Zipf(params.accounts_per_shard, params.zipf_s).
  SmallBankWorkload(const DataModel* model, const Directory* dir,
                    WorkloadParams params, Rng rng, const Zipf& zipf);

  /// Draws the next transaction. `client` / `client_ts` identify it for
  /// reply matching; the signature is left unset (the client machine
  /// signs).
  Transaction Next(NodeId client, uint64_t client_ts);

  /// The cluster a transaction must be submitted to: the (designated)
  /// coordinator of its target collection + shard set.
  int TargetCluster(const Transaction& tx) const;

  const WorkloadParams& params() const { return params_; }

 private:
  Transaction MakeInternal(NodeId client, uint64_t ts);
  Transaction MakeCross(NodeId client, uint64_t ts);
  /// A key on shard `shard` of a collection (keys are sharded by
  /// key % shard_count).
  uint64_t KeyOn(ShardId shard, int shard_count);

  const DataModel* model_;
  const Directory* dir_;
  WorkloadParams params_;
  Rng rng_;
  Zipf zipf_;
  std::vector<CollectionId> shared_collections_;  // non-local collections
};

}  // namespace qanaat

#endif  // QANAAT_WORKLOAD_SMALLBANK_H_
