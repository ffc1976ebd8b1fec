#include "qanaat/system.h"

namespace qanaat {

QanaatSystem::QanaatSystem(Options opts)
    : env_(std::make_unique<Env>(opts.seed)),
      net_(std::make_unique<Network>(env_.get())),
      model_(opts.params.num_enterprises) {
  const SystemParams& p = opts.params;
  dir_.params = p;

  // ---- data model: one workflow over all enterprises + pairwise
  // intermediate collections (the §5 setup: transactions target shared
  // collections with varying numbers of involved enterprises).
  model_.set_default_shard_count(p.shards_per_enterprise);
  model_.AddWorkflow(EnterpriseSet::All(p.num_enterprises));
  if (opts.pairwise_collections) {
    for (int a = 0; a < p.num_enterprises; ++a) {
      for (int b = a + 1; b < p.num_enterprises; ++b) {
        model_.AddIntermediateCollection(
            EnterpriseSet{static_cast<EnterpriseId>(a),
                          static_cast<EnterpriseId>(b)});
      }
    }
  }

  // ---- regions
  int max_region = 0;
  for (int r : opts.cluster_regions) max_region = std::max(max_region, r);
  for (int r = 0; r < max_region; ++r) net_->AddRegion();

  // ---- cluster configs (node ids assigned at actor construction, so we
  // lay out the directory first with placeholder ids, then construct
  // actors in a fixed order and fill the ids in).
  int num_clusters = p.num_enterprises * p.shards_per_enterprise;
  dir_.clusters.resize(num_clusters);
  ordering_.resize(num_clusters);
  execution_.resize(num_clusters);
  filters_.resize(num_clusters);

  for (int c = 0; c < num_clusters; ++c) {
    ClusterConfig& cfg = dir_.clusters[c];
    cfg.cluster_id = c;
    cfg.enterprise = static_cast<EnterpriseId>(c / p.shards_per_enterprise);
    cfg.shard = static_cast<ShardId>(c % p.shards_per_enterprise);
    cfg.failure_model = p.failure_model;
    cfg.region = opts.cluster_regions.empty()
                     ? 0
                     : opts.cluster_regions[c % opts.cluster_regions.size()];
  }

  // Reserve node ids by constructing actors cluster by cluster. Ordering
  // node ids must be known before OrderingNode construction (the engine
  // needs the member list), so we pre-compute them: ids are assigned
  // sequentially by Network::Register.
  size_t ord_n = p.OrderingClusterSize();
  size_t exec_n =
      (p.failure_model == FailureModel::kByzantine && p.use_firewall)
          ? static_cast<size_t>(2 * p.g + 1)
          : 0;
  size_t filter_rows = p.use_firewall ? static_cast<size_t>(p.h) + 1 : 0;
  size_t filters_per_row = p.use_firewall ? static_cast<size_t>(p.h) + 1 : 0;

  NodeId next_id = 0;
  for (int c = 0; c < num_clusters; ++c) {
    ClusterConfig& cfg = dir_.clusters[c];
    for (size_t i = 0; i < ord_n; ++i) cfg.ordering.push_back(next_id++);
    for (size_t i = 0; i < exec_n; ++i) cfg.execution.push_back(next_id++);
    cfg.filter_rows.resize(filter_rows);
    for (size_t r = 0; r < filter_rows; ++r) {
      for (size_t i = 0; i < filters_per_row; ++i) {
        cfg.filter_rows[r].push_back(next_id++);
      }
    }
  }

  for (int c = 0; c < num_clusters; ++c) {
    for (size_t i = 0; i < ord_n; ++i) {
      ordering_[c].push_back(std::make_unique<OrderingNode>(
          env_.get(), &dir_, &model_, c, static_cast<int>(i)));
    }
    for (size_t i = 0; i < exec_n; ++i) {
      execution_[c].push_back(std::make_unique<ExecutionNode>(
          env_.get(), &dir_, &model_, c, static_cast<int>(i)));
    }
    filters_[c].resize(filter_rows);
    for (size_t r = 0; r < filter_rows; ++r) {
      for (size_t i = 0; i < filters_per_row; ++i) {
        filters_[c][r].push_back(std::make_unique<FilterNode>(
            env_.get(), &dir_, c, static_cast<int>(r),
            static_cast<int>(i)));
      }
    }
    // Sanity: the pre-computed ids must match the assigned ones.
    if (!ordering_[c].empty() &&
        ordering_[c][0]->id() != dir_.clusters[c].ordering[0]) {
      env_->metrics.Inc("system.id_mismatch");
    }
    RestrictFirewallLinks(net_.get(), dir_.clusters[c]);
  }
}

ClientMachine* QanaatSystem::AddClient(WorkloadParams wl, double rate_tps) {
  // Clients with the same key space share one distribution: its
  // normaliser sums one term per account (~2 ms at the default 100 000).
  if (!client_zipf_ || client_zipf_->n() != wl.accounts_per_shard ||
      client_zipf_->s() != wl.zipf_s) {
    client_zipf_.emplace(wl.accounts_per_shard, wl.zipf_s);
  }
  auto workload = std::make_unique<SmallBankWorkload>(
      &model_, &dir_, wl, Rng(client_seed_ * 31 + clients_.size()),
      *client_zipf_);
  clients_.push_back(std::make_unique<ClientMachine>(
      env_.get(), &dir_, std::move(workload), rate_tps,
      client_seed_ + clients_.size()));
  return clients_.back().get();
}

uint64_t QanaatSystem::TotalMeasuredCommits() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->measured_commits();
  return total;
}

uint64_t QanaatSystem::TotalAccepted() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->accepted();
  return total;
}

Histogram QanaatSystem::MergedLatencies() const {
  Histogram h;
  for (const auto& c : clients_) h.Merge(c->latencies());
  return h;
}

Status QanaatSystem::VerifyAllLedgers() const {
  for (const auto& cluster_nodes : ordering_) {
    for (const auto& node : cluster_nodes) {
      // Quorum 0: skip certificate checks for mixed cert forms; chain
      // structure + digests still fully verified.
      QANAAT_RETURN_IF_ERROR(
          node->exec_core().ledger().VerifyChain(env_->keystore, 0));
    }
  }
  for (const auto& cluster_nodes : execution_) {
    for (const auto& node : cluster_nodes) {
      QANAAT_RETURN_IF_ERROR(
          node->core().ledger().VerifyChain(env_->keystore, 0));
    }
  }
  return Status::Ok();
}

}  // namespace qanaat
