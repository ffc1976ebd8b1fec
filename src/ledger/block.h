#ifndef QANAAT_LEDGER_BLOCK_H_
#define QANAAT_LEDGER_BLOCK_H_

#include <memory>
#include <vector>

#include "collections/tx_id.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "ledger/transaction.h"

namespace qanaat {

/// Fixed-width digest serde helpers shared by every message codec.
inline void EncodeDigestTo(Encoder* enc, const Sha256Digest& d) {
  enc->PutRaw(d.bytes.data(), d.bytes.size());
}
inline bool DecodeDigestFrom(Decoder* dec, Sha256Digest* d) {
  return dec->GetRaw(d->bytes.data(), d->bytes.size());
}

/// A transaction block: the unit of ordering and of ledger append.
///
/// The primary batches pending requests of one collection shard into a
/// block and assigns the block an ID = ⟨α, γ⟩ during the ordering phase
/// (paper §4.1 — "to provide a total order among transaction blocks ...
/// the primary also assigns an ID"). α.n is the block's sequence number
/// on that collection shard; γ captures the state of every
/// order-dependent collection.
struct Block {
  TxId id;
  std::vector<Transaction> txs;
  /// Retry nonce: an aborted cross-cluster block is re-proposed with the
  /// same transactions and ID but a new attempt number, so the retry has
  /// a fresh digest (§4.3.5 deadlock resolution).
  uint32_t attempt = 0;

  /// Merkle root over transaction digests (set by Seal()).
  Sha256Digest tx_root;

  /// Seals the block: computes tx_root and memoizes the block digest.
  /// Must be called after the tx list and id are final.
  void Seal();

  /// Digest covering id + tx_root: what consensus orders and commit
  /// certificates sign. Memoized by Seal(); blocks are immutable once
  /// sealed, so the hot paths (consensus, certificates, audits) reuse
  /// the cached value the way Transaction::Digest() does.
  Sha256Digest Digest() const;

  /// Audit helpers: recompute tamper-evidence from canonical bytes,
  /// bypassing every memoized digest and without mutating shared state.
  /// RecomputeTxRoot() re-hashes every transaction body and rebuilds the
  /// Merkle root; RecomputeDigest(root) re-derives the block digest a
  /// certificate must cover, given that recomputed root.
  Sha256Digest RecomputeTxRoot() const;
  Sha256Digest RecomputeDigest(const Sha256Digest& root) const;
  /// Drops the memoized digest after in-place mutation (tests, Byzantine
  /// models); the next Digest() recomputes from the current contents.
  void InvalidateDigest() const { digest_valid_ = false; }

  uint32_t WireSize() const;
  size_t tx_count() const { return txs.size(); }

  /// Canonical wire form (id, attempt, transactions). tx_root is not
  /// encoded: DecodeFrom re-Seals, so a tampered body cannot smuggle a
  /// stale root past the digest check.
  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, Block* out);

 private:
  mutable Sha256Digest digest_cache_;
  mutable bool digest_valid_ = false;
};

using BlockPtr = std::shared_ptr<const Block>;

/// Derives a 256-bit digest from (salt, a, b, parent digest) with two
/// lanes of chained SplitMix64 finalizers. The protocol-internal digest
/// derivations below (value digests, consensus signables, vote signables)
/// use this instead of an inner SHA-256: they only ever feed equality
/// checks and KeyStore sign/verify, both sides derive them with the same
/// deterministic function, and unforgeability still rests entirely on the
/// KeyStore's secret key — so the substitution argument (README "Crypto
/// substitution") is unchanged while the sim-core hot path drops most of
/// its SHA cost.
/// Content digests (transactions, blocks, results) remain real SHA-256.
Sha256Digest DeriveDigest(uint64_t salt, uint64_t a, uint64_t b,
                          const Sha256Digest& parent);

/// Digest of a consensus value: derived from (kind ‖ block digest).
/// Defined here so commit certificates can be verified by parties outside
/// the consensus engine (filters, other clusters) from the block digest
/// alone.
Sha256Digest ValueDigestFor(uint8_t kind, const Sha256Digest& block_digest);

/// What PBFT prepare/commit signatures cover: derived from (view ‖ slot ‖
/// value digest).
Sha256Digest ConsensusSignable(ViewNo view, uint64_t slot,
                               const Sha256Digest& value_digest);

/// What checkpoint votes sign: derived from (slot ‖ history digest),
/// where the history digest chains the value digests of every delivered
/// slot up to `slot`. Matching votes from a quorum make the checkpoint
/// stable — the engine may then garbage-collect slot state at or below
/// it, and a certificate of those votes proves the frontier to a
/// recovering replica.
Sha256Digest CheckpointSignable(uint64_t slot,
                                const Sha256Digest& history_digest);

/// Commit certificate: signatures from a quorum (local-majority) of a
/// cluster's ordering nodes proving a block was ordered (paper §4.2).
/// Appended to the ledger with the block so any later tampering with
/// block data is detectable.
///
/// Two forms:
///  * PBFT form — the signatures are the COMMIT-phase signatures, which
///    cover ConsensusSignable(view, slot, ValueDigestFor(kind, d));
///  * direct form (`direct == true`) — crash clusters and flattened
///    commit votes sign the block digest itself.
struct CommitCertificate {
  Sha256Digest block_digest;
  ViewNo view = 0;
  uint64_t slot = 0;
  uint8_t value_kind = 1;  // ConsensusValue::Kind::kBlock
  bool direct = false;
  std::vector<Signature> sigs;

  /// Valid iff >= quorum distinct valid signatures over the covered
  /// digest.
  bool Valid(const KeyStore& ks, size_t quorum) const;

  /// As Valid, additionally requiring every signer to be a member of
  /// `allowed` (e.g. the ordering nodes of the claimed cluster).
  bool ValidFrom(const KeyStore& ks, size_t quorum,
                 const std::vector<NodeId>& allowed) const;

  uint32_t WireSize() const {
    return static_cast<uint32_t>(56 + sigs.size() * 20);
  }

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, CommitCertificate* out);

 private:
  Sha256Digest CoveredDigest() const;
};

/// Reply certificate: g+1 matching signed replies from distinct execution
/// nodes, assembled by the top filter row (paper §4.2). The client accepts
/// a result only with a valid reply certificate.
struct ReplyCertificate {
  Sha256Digest reply_digest;
  std::vector<Signature> sigs;

  bool Valid(const KeyStore& ks, size_t quorum) const;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ReplyCertificate* out);
};

}  // namespace qanaat

#endif  // QANAAT_LEDGER_BLOCK_H_
