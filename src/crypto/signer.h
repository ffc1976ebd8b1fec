#ifndef QANAAT_CRYPTO_SIGNER_H_
#define QANAAT_CRYPTO_SIGNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/sha256.h"

namespace qanaat {

/// A signature over a digest by one node, ⟨m⟩_σi in the paper's notation.
///
/// Substitution note (see README "Crypto substitution"): instead of ECDSA
/// over a PKI we use a deterministic 16-byte PRF tag over the digest,
/// keyed by secret_key(i). Unforgeability holds against the simulated
/// adversary because secret keys never leave the KeyStore; protocol code
/// only ever observes sign/verify outcomes, exactly as with real
/// signatures.
struct Signature {
  NodeId signer = kInvalidNode;
  uint64_t tag_lo = 0;
  uint64_t tag_hi = 0;

  bool operator==(const Signature& o) const {
    return signer == o.signer && tag_lo == o.tag_lo && tag_hi == o.tag_hi;
  }

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(signer);
    enc->PutU64(tag_lo);
    enc->PutU64(tag_hi);
  }
  static bool DecodeFrom(Decoder* dec, Signature* out) {
    return dec->GetU32(&out->signer) && dec->GetU64(&out->tag_lo) &&
           dec->GetU64(&out->tag_hi);
  }
};

/// Public-key infrastructure for the deployment: issues per-node secret
/// keys and performs sign/verify. One global instance per simulation.
///
/// Also issues threshold signature *shares* (σ⟨m⟩_i): a share is a
/// signature under a per-node threshold key; a ThresholdCert combining k
/// distinct valid shares is accepted (paper §3.1 uses n−f shares).
class KeyStore {
 public:
  explicit KeyStore(uint64_t seed) : seed_(seed) {}

  /// Sign a digest with node i's secret key.
  Signature Sign(NodeId i, const Sha256Digest& digest) const;

  /// Verify a signature allegedly from sig.signer over the digest.
  bool Verify(const Signature& sig, const Sha256Digest& digest) const;

  /// Produce a threshold signature share for node i.
  Signature SignShare(NodeId i, const Sha256Digest& digest) const;
  bool VerifyShare(const Signature& share, const Sha256Digest& digest) const;

  /// Produce a forged signature that does NOT verify (used by Byzantine
  /// node models in tests and fault-injection benches).
  Signature Forge(NodeId claimed_signer) const;

 private:
  Signature SignWithDomain(NodeId i, uint64_t domain,
                           const Sha256Digest& digest) const;

  uint64_t seed_;
};

/// Appends `signer` to the flat distinct-signer list unless already
/// present. Certificate validators count distinct signers over
/// quorum-sized lists, where a linear probe over a small vector beats
/// the tree allocation per signature this replaced; shared here so the
/// threshold-share and commit-quorum validators cannot diverge.
inline void AddDistinctSigner(std::vector<NodeId>* distinct, NodeId signer) {
  for (NodeId n : *distinct) {
    if (n == signer) return;
  }
  distinct->push_back(signer);
}

/// A threshold signature certificate: k signature shares from distinct
/// nodes over the same digest. Valid iff it has >= `threshold` distinct
/// valid shares.
struct ThresholdCert {
  std::vector<Signature> shares;

  void EncodeTo(Encoder* enc) const;
  static bool DecodeFrom(Decoder* dec, ThresholdCert* out);

  /// Checks distinctness of signers and validity of every share.
  bool Valid(const KeyStore& ks, const Sha256Digest& digest,
             size_t threshold) const;
};

}  // namespace qanaat

#endif  // QANAAT_CRYPTO_SIGNER_H_
