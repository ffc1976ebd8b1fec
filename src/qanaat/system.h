#ifndef QANAAT_QANAAT_SYSTEM_H_
#define QANAAT_QANAAT_SYSTEM_H_

#include <memory>
#include <optional>
#include <vector>

#include "collections/data_model.h"
#include "common/rng.h"
#include "firewall/firewall.h"
#include "protocols/context.h"
#include "protocols/ordering_node.h"
#include "qanaat/client.h"
#include "sim/env.h"
#include "sim/network.h"

namespace qanaat {

/// Everything needed to stand up a Qanaat deployment in one simulation:
/// data model, directory, clusters (ordering nodes, and — for Byzantine
/// deployments with separation — execution nodes and the privacy
/// firewall), plus client machines.
///
/// The default data model registers one workflow over all enterprises
/// (root collection), local collections, and an intermediate collection
/// for every pair of enterprises, matching the evaluation setups of §5.
class QanaatSystem {
 public:
  struct Options {
    SystemParams params;
    /// Region index per cluster (empty = all region 0). Used for the
    /// geo-distribution experiments (§5.4).
    std::vector<int> cluster_regions;
    /// Create intermediate collections for every pair of enterprises.
    bool pairwise_collections = true;
    uint64_t seed = 1;
  };

  explicit QanaatSystem(Options opts);

  Env& env() { return *env_; }
  Network& net() { return *net_; }
  const Directory& directory() const { return dir_; }
  const DataModel& model() const { return model_; }
  DataModel* mutable_model() { return &model_; }

  OrderingNode* ordering_node(int cluster, int index) {
    return ordering_[cluster][index].get();
  }
  ExecutionNode* execution_node(int cluster, int index) {
    return execution_[cluster][index].get();
  }
  FilterNode* filter_node(int cluster, int row, int index) {
    return filters_[cluster][row][index].get();
  }
  int cluster_count() const { return static_cast<int>(ordering_.size()); }

  /// Creates a client machine driving the given workload at `rate_tps`.
  ClientMachine* AddClient(WorkloadParams wl, double rate_tps);
  const std::vector<std::unique_ptr<ClientMachine>>& clients() const {
    return clients_;
  }

  /// Aggregate committed transactions across all client machines
  /// (measurement window only).
  uint64_t TotalMeasuredCommits() const;
  /// Accepted (settled) transactions across all clients, whole run.
  uint64_t TotalAccepted() const;
  Histogram MergedLatencies() const;

  /// Sum of committed txs over every cluster's node 0 ledger (sanity /
  /// audit surface for tests).
  Status VerifyAllLedgers() const;

 private:
  std::unique_ptr<Env> env_;
  std::unique_ptr<Network> net_;
  DataModel model_;
  Directory dir_;
  std::vector<std::vector<std::unique_ptr<OrderingNode>>> ordering_;
  std::vector<std::vector<std::unique_ptr<ExecutionNode>>> execution_;
  std::vector<std::vector<std::vector<std::unique_ptr<FilterNode>>>> filters_;
  std::vector<std::unique_ptr<ClientMachine>> clients_;
  std::optional<Zipf> client_zipf_;  // key distribution of the last client
  uint64_t client_seed_ = 7777;
};

}  // namespace qanaat

#endif  // QANAAT_QANAAT_SYSTEM_H_
