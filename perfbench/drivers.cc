// Layer drivers: each times calls into one module's public functions, on
// inputs generated by SmallBankWorkload with the workload's parameters and
// the run's seed (uniform or Zipf keys, batch-sized blocks, real signatures
// and certificates). A driver runs kBatches timed batches, records a span
// around each, and reports the median batch's nanoseconds per operation.
// Drivers check what the calls return; every wrong answer counts in
// `*failures`.

#include <algorithm>
#include <deque>
#include <memory>
#include <tuple>

#include "bench.h"
#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "crypto/merkle.h"
#include "firewall/executor_core.h"
#include "ledger/dag_ledger.h"
#include "protocols/wire.h"
#include "qanaat/system.h"
#include "sim/network.h"
#include "store/mvstore.h"

namespace qanaat {
namespace perfbench {
namespace {

constexpr int kBatches = 5;
volatile uint64_t observed = 0;
/// Transactions per block: the deployment's batch size.
constexpr size_t kBlockTxs = 100;

/// Times `batch` (which returns the operations it performed) kBatches
/// times under spans named after the metric; returns median ns/op.
template <typename Fn>
double TimeDriver(Tracer* tracer, int parent, const std::string& metric,
                  Fn batch) {
  std::vector<double> ns;
  uint64_t sink = 0;
  for (int i = 0; i < kBatches; ++i) {
    int id = tracer ? tracer->Begin("driver." + metric, parent) : -1;
    auto t0 = Clock::now();
    uint64_t ops = batch(&sink);
    double dt = SecondsSince(t0);
    if (tracer) tracer->End(id).counts["ops"] = ops;
    ns.push_back(dt * 1e9 / static_cast<double>(std::max<uint64_t>(ops, 1)));
  }
  observed = sink;  // keeps the batches' results, and so their work, live
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Seals `txs` into blocks of kBlockTxs per collection, each chain
/// numbered from 1 on shard 0.
std::vector<BlockPtr> MakeBlocks(const std::vector<Transaction>& txs) {
  std::map<CollectionId, std::vector<Transaction>> open;
  std::map<CollectionId, SeqNo> next;
  std::vector<BlockPtr> blocks;
  for (const Transaction& tx : txs) {
    auto& pending = open[tx.collection];
    pending.push_back(tx);
    if (pending.size() < kBlockTxs) continue;
    auto b = std::make_shared<Block>();
    b->id.alpha = {tx.collection, 0, ++next[tx.collection]};
    b->txs = std::move(pending);
    pending.clear();
    b->Seal();
    blocks.push_back(std::move(b));
  }
  return blocks;
}

std::vector<Transaction> MakeTxs(QanaatSystem& sys, WorkloadParams p,
                                 uint64_t seed, size_t n) {
  SmallBankWorkload wl(&sys.model(), &sys.directory(), p, Rng(seed));
  std::vector<Transaction> txs;
  txs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Transaction tx = wl.Next(/*client=*/1000 + i % 64, i + 1);
    tx.client_sig = sys.env().keystore.Sign(tx.client, tx.Digest());
    txs.push_back(std::move(tx));
  }
  return txs;
}

/// A commit certificate with a real quorum of signatures over the block.
CommitCertificate CertFor(const KeyStore& ks, const Block& b, int quorum) {
  CommitCertificate cert;
  cert.block_digest = b.Digest();
  cert.direct = true;
  for (int i = 0; i < quorum; ++i) {
    cert.sigs.push_back(ks.Sign(static_cast<NodeId>(i), cert.block_digest));
  }
  return cert;
}

// ------------------------------------------------------------- sim core

class RingActor : public Actor {
 public:
  RingActor(Env* env, uint64_t* hops_left)
      : Actor(env, "ring"), hops_left_(hops_left) {}
  void set_next(NodeId next) { next_ = next; }
  void OnMessage(NodeId, const MessageRef& msg) override {
    if (*hops_left_ == 0) return;
    --*hops_left_;
    Send(next_, msg);
  }

 private:
  uint64_t* hops_left_;
  NodeId next_ = kInvalidNode;
};

/// Network::Send around a 16-actor ring with 8 tokens in flight; counts
/// every executed event (delivery and handler completion).
uint64_t DeliverRing(uint64_t hops) {
  Env env(42);
  Network net(&env);
  uint64_t left = hops;
  std::vector<std::unique_ptr<RingActor>> ring;
  for (int i = 0; i < 16; ++i) {
    ring.push_back(std::make_unique<RingActor>(&env, &left));
  }
  for (size_t i = 0; i < ring.size(); ++i) {
    ring[i]->set_next(ring[(i + 1) % ring.size()]->id());
  }
  for (int t = 0; t < 8; ++t) {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    net.Send(ring[t]->id(), ring[t + 1]->id(), m);
  }
  return env.sim.RunAll();
}

/// Self-rearming timers over protocol-shaped delays: batcher deadline,
/// slot watchdog, cross retry, checkpoint horizon, and a rare far-future
/// timer beyond the wheel's horizon.
class TimerStormActor : public Actor {
 public:
  TimerStormActor(Env* env, uint64_t* left)
      : Actor(env, "timers"), left_(left) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    static constexpr SimTime kDelays[] = {120, 2000, 65000, 400000};
    SimTime d = payload % 97 == 0 ? 20 * kSecond : kDelays[payload % 4];
    StartTimer(d, tag, payload + 1);
  }
  void Kick(int streams) {
    for (int i = 0; i < streams; ++i) StartTimer(1 + i, 1, i);
  }

 private:
  uint64_t* left_;
};

uint64_t TimerStorm(uint64_t firings) {
  Env env(43);
  Network net(&env);
  uint64_t left = firings;
  TimerStormActor actor(&env, &left);
  actor.Kick(64);
  return env.sim.RunAll();
}

// ------------------------------------------------------------ consensus

/// A consensus cluster wired through an in-memory FIFO: sends enqueue,
/// and the driver drains the queue after every proposal, so each slot
/// runs its full message exchange with no transport or CPU model.
template <typename Engine>
uint64_t SlotChurn(int n, int f, const std::vector<BlockPtr>& blocks,
                   uint64_t slots) {
  Env env(7);
  std::vector<std::unique_ptr<Engine>> engines(n);
  std::deque<std::tuple<NodeId, NodeId, MessageRef>> wire;
  std::vector<NodeId> cluster;
  for (int i = 0; i < n; ++i) cluster.push_back(static_cast<NodeId>(i));
  uint64_t delivered = 0;
  for (int i = 0; i < n; ++i) {
    EngineContext ctx;
    ctx.env = &env;
    ctx.self = static_cast<NodeId>(i);
    ctx.cluster = cluster;
    ctx.self_index = i;
    ctx.pipeline_depth = 8;
    ctx.checkpoint_interval = 64;
    NodeId self = ctx.self;
    ctx.send = [&wire, self](NodeId to, MessageRef m) {
      wire.emplace_back(self, to, std::move(m));
    };
    ctx.broadcast = [&wire, &cluster, self](MessageRef m) {
      for (NodeId to : cluster) {
        if (to != self) wire.emplace_back(self, to, m);
      }
    };
    ctx.start_timer = [](SimTime, uint64_t, uint64_t) {};
    ctx.deliver = [&delivered](uint64_t, const ConsensusValue&) {
      ++delivered;
    };
    ctx.request_state_transfer = [](const CheckpointCertificate&) {};
    ctx.on_view_change = [](ViewNo, NodeId) {};
    engines[i] = std::make_unique<Engine>(std::move(ctx), f, 100000);
  }
  for (uint64_t s = 0; s < slots; ++s) {
    engines[0]->Propose(ConsensusValue::ForBlock(blocks[s % blocks.size()]));
    while (!wire.empty()) {
      auto [from, to, m] = std::move(wire.front());
      wire.pop_front();
      engines[to]->OnMessage(from, m);
    }
  }
  return delivered / static_cast<uint64_t>(n);
}

}  // namespace

std::map<std::string, double> RunDrivers(const Workload& w, uint64_t seed,
                                         Tracer* tracer, uint64_t* failures) {
  std::map<std::string, double> out;
  uint64_t& bad = *failures;
  int root = tracer ? tracer->Begin("drivers", -1) : -1;
  auto time = [&](const std::string& metric, auto batch) {
    out[metric] = TimeDriver(tracer, root, metric, batch);
  };

  // Inputs: the workload's own transaction mix, plus the same mix with
  // uniform and with Zipf 0.9 keys for the executor and store drivers.
  QanaatSystem sys(OptionsOf(w, seed));
  const KeyStore& ks = sys.env().keystore;
  WorkloadParams own = ParamsOf(w);
  WorkloadParams uniform = own, zipf = own;
  uniform.zipf_s = 0.0;
  zipf.zipf_s = 0.9;
  std::vector<Transaction> txs = MakeTxs(sys, own, seed, 20000);
  std::vector<BlockPtr> blocks = MakeBlocks(txs);
  const size_t quorum = 3;  // 2f + 1 with f = 1

  time("workload.next_ns", [&](uint64_t* sink) {
    SmallBankWorkload wl(&sys.model(), &sys.directory(), own, Rng(seed));
    for (uint64_t i = 0; i < 50000; ++i) {
      *sink += wl.Next(1000, i + 1).ops.size();
    }
    return uint64_t{50000};
  });

  time("sim.deliver_ns", [](uint64_t*) { return DeliverRing(300000); });
  time("sim.timer_ns", [](uint64_t*) { return TimerStorm(300000); });

  time("pbft.slot_ns", [&](uint64_t*) {
    uint64_t decided = SlotChurn<PbftEngine>(4, 1, blocks, 2000);
    bad += decided != 2000;
    return decided;
  });
  time("paxos.slot_ns", [&](uint64_t*) {
    uint64_t decided = SlotChurn<PaxosEngine>(3, 1, blocks, 20000);
    bad += decided != 20000;
    return decided;
  });

  for (const auto& [metric, params] :
       {std::make_pair("exec.tx_ns.uniform", uniform),
        std::make_pair("exec.tx_ns.zipf", zipf)}) {
    std::vector<BlockPtr> exec_blocks =
        MakeBlocks(MakeTxs(sys, params, seed, 20000));
    std::vector<CommitCertificate> certs;
    for (const BlockPtr& b : exec_blocks) {
      certs.push_back(CertFor(ks, *b, static_cast<int>(quorum)));
    }
    time(metric, [&](uint64_t* sink) {
      Env env(seed);
      ExecutorCore core(&env, &sys.model(), 0, 0);
      uint64_t n = 0;
      for (size_t i = 0; i < exec_blocks.size(); ++i) {
        const BlockPtr& b = exec_blocks[i];
        bad += !core.Submit(b, certs[i], b->id.alpha, {}, nullptr).ok();
        n += b->tx_count();
      }
      *sink += core.executed_txs();
      bad += core.executed_txs() != n;
      return n;
    });
  }

  // Store: the keys the workload's transactions touch, in order, one
  // version per block; snapshot reads at a random earlier version.
  std::vector<MvStore::Key> keys;
  for (const Transaction& tx : txs) {
    for (const TxOp& op : tx.ops) keys.push_back(op.key);
  }
  auto fill = [&](MvStore* store) {
    for (size_t i = 0; i < keys.size(); ++i) {
      bad += !store->Put(keys[i], static_cast<int64_t>(i), i / kBlockTxs + 1)
                  .ok();
    }
  };
  time("store.put_ns", [&](uint64_t* sink) {
    MvStore store;
    fill(&store);
    *sink += store.key_count();
    return static_cast<uint64_t>(keys.size());
  });
  {
    MvStore store;
    fill(&store);
    const SeqNo top = store.latest_version();
    Rng rng(seed);
    std::vector<SeqNo> at;
    for (size_t i = 0; i < keys.size(); ++i) at.push_back(1 + rng.Uniform(top));
    time("store.get_at_ns", [&](uint64_t* sink) {
      for (size_t i = 0; i < keys.size(); ++i) {
        auto v = store.GetAt(keys[i], at[i]);
        *sink += v.ok() ? static_cast<uint64_t>(*v) : 1;
      }
      return static_cast<uint64_t>(keys.size());
    });
  }

  // Ledger: append the workload's blocks with quorum certificates, then
  // re-audit the chains.
  {
    std::vector<CommitCertificate> certs;
    for (const BlockPtr& b : blocks) {
      certs.push_back(CertFor(ks, *b, static_cast<int>(quorum)));
    }
    auto append_all = [&](DagLedger* ledger) {
      uint64_t ok = 0;
      for (size_t i = 0; i < blocks.size(); ++i) {
        ok += ledger->Append(blocks[i], certs[i], 0).ok();
      }
      return ok;
    };
    time("ledger.append_ns", [&](uint64_t* sink) {
      DagLedger ledger;
      bad += append_all(&ledger) != blocks.size();
      *sink += ledger.size();
      return static_cast<uint64_t>(blocks.size());
    });
    DagLedger ledger;
    append_all(&ledger);
    time("ledger.verify_chain_ns_per_block", [&](uint64_t*) {
      for (int i = 0; i < 4; ++i) bad += !ledger.VerifyChain(ks, quorum).ok();
      return static_cast<uint64_t>(4 * ledger.size());
    });
  }

  // Crypto on the workload's encoded transactions and digests.
  std::vector<uint8_t> bytes;
  {
    Encoder enc;
    for (const Transaction& tx : txs) tx.EncodeTo(&enc);
    bytes = std::move(enc).Take();
  }
  std::vector<Sha256Digest> digests;
  for (const Transaction& tx : txs) digests.push_back(tx.Digest());
  time("crypto.sha256_ns_per_kb", [&](uint64_t* sink) {
    uint64_t kb = 0;
    for (int r = 0; r < 8; ++r) {
      for (size_t off = 0; off + 1024 <= bytes.size(); off += 1024, ++kb) {
        *sink += Sha256::Hash(bytes.data() + off, 1024).Prefix64();
      }
    }
    return kb;
  });
  std::vector<Signature> sigs;
  for (size_t i = 0; i < digests.size(); ++i) {
    sigs.push_back(ks.Sign(static_cast<NodeId>(i % 64), digests[i]));
  }
  time("crypto.sign_ns", [&](uint64_t* sink) {
    for (size_t i = 0; i < digests.size(); ++i) {
      *sink += ks.Sign(static_cast<NodeId>(i % 64), digests[i]).tag_lo;
    }
    return static_cast<uint64_t>(digests.size());
  });
  time("crypto.verify_ns", [&](uint64_t*) {
    for (size_t i = 0; i < digests.size(); ++i) {
      bad += !ks.Verify(sigs[i], digests[i]);
    }
    return static_cast<uint64_t>(digests.size());
  });
  std::vector<ThresholdCert> tcerts(digests.size());
  for (size_t i = 0; i < digests.size(); ++i) {
    for (size_t s = 0; s < quorum; ++s) {
      tcerts[i].shares.push_back(
          ks.SignShare(static_cast<NodeId>(s), digests[i]));
    }
  }
  time("crypto.threshold_verify_ns", [&](uint64_t*) {
    for (size_t i = 0; i < digests.size(); ++i) {
      bad += !tcerts[i].Valid(ks, digests[i], quorum);
    }
    return static_cast<uint64_t>(digests.size());
  });
  time("crypto.merkle_root_ns", [&](uint64_t* sink) {
    uint64_t roots = 0;
    for (const BlockPtr& b : blocks) {
      std::vector<Sha256Digest> leaves;
      for (const Transaction& tx : b->txs) leaves.push_back(tx.Digest());
      *sink += MerkleTree::RootOf(leaves).Prefix64();
      ++roots;
    }
    return roots;
  });

  // Wire: the firewall's block message, ordering -> execution.
  std::vector<std::shared_ptr<ExecOrderMsg>> msgs;
  std::vector<std::vector<uint8_t>> encoded;
  for (const BlockPtr& b : blocks) {
    auto m = std::make_shared<ExecOrderMsg>();
    m->block = b;
    m->cert = CertFor(ks, *b, static_cast<int>(quorum));
    m->alpha_here = b->id.alpha;
    m->wire_bytes = b->WireSize() + m->cert.WireSize();
    Encoder enc;
    EncodeMessage(*m, &enc);
    encoded.push_back(std::move(enc).Take());
    msgs.push_back(std::move(m));
  }
  time("wire.encode_ns", [&](uint64_t* sink) {
    for (int r = 0; r < 4; ++r) {
      for (const auto& m : msgs) {
        Encoder enc;
        bad += !EncodeMessage(*m, &enc);
        *sink += enc.size();
      }
    }
    return static_cast<uint64_t>(4 * msgs.size());
  });
  time("wire.decode_ns", [&](uint64_t*) {
    for (int r = 0; r < 4; ++r) {
      for (const auto& buf : encoded) {
        Decoder dec(buf);
        bad += DecodeMessage(&dec) == nullptr;
      }
    }
    return static_cast<uint64_t>(4 * encoded.size());
  });

  if (tracer) tracer->End(root);
  return out;
}

}  // namespace perfbench
}  // namespace qanaat
