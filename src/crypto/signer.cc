#include "crypto/signer.h"

#include <cstring>

#include "common/rng.h"

namespace qanaat {

namespace {
constexpr uint64_t kDomainSign = 0x5349474e;   // "SIGN"
constexpr uint64_t kDomainShare = 0x53484152;  // "SHAR"
}  // namespace

Signature KeyStore::SignWithDomain(NodeId i, uint64_t domain,
                                   const Sha256Digest& digest) const {
  // secret_key(i) = (seed, i); never exposed outside this class.
  //
  // The tag is a keyed PRF over the 256-bit digest: two lanes of chained
  // SplitMix64 finalizers, keyed by (seed, domain, signer). This replaced
  // an inner SHA-256 — sign/verify dominated the sim-core wall clock —
  // and the substitution argument (README "Crypto substitution") is unchanged:
  // unforgeability against the *simulated* adversary holds because
  // protocol code never computes tags itself (secret keys never leave
  // the KeyStore; Byzantine models use Forge(), which never verifies).
  uint64_t key = seed_ ^ Mix64(domain + 0x51ed270b9f652295ULL) ^
                 Mix64(static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
  uint64_t lo = key;
  uint64_t hi = ~key;
  uint64_t w[4];
  std::memcpy(w, digest.bytes.data(), sizeof(w));
  for (int k = 0; k < 4; ++k) {
    lo = Mix64(lo ^ w[k]);
    hi = Mix64(hi + w[k] + 0x9e3779b97f4a7c15ULL * (k + 1));
  }
  Signature sig;
  sig.signer = i;
  sig.tag_lo = Mix64(lo ^ (hi >> 32));
  sig.tag_hi = Mix64(hi ^ (lo << 32) ^ key);
  return sig;
}

Signature KeyStore::Sign(NodeId i, const Sha256Digest& digest) const {
  return SignWithDomain(i, kDomainSign, digest);
}

bool KeyStore::Verify(const Signature& sig, const Sha256Digest& digest) const {
  if (sig.signer == kInvalidNode) return false;
  Signature expect = SignWithDomain(sig.signer, kDomainSign, digest);
  return expect == sig;
}

Signature KeyStore::SignShare(NodeId i, const Sha256Digest& digest) const {
  return SignWithDomain(i, kDomainShare, digest);
}

bool KeyStore::VerifyShare(const Signature& share,
                           const Sha256Digest& digest) const {
  if (share.signer == kInvalidNode) return false;
  Signature expect = SignWithDomain(share.signer, kDomainShare, digest);
  return expect == share;
}

Signature KeyStore::Forge(NodeId claimed_signer) const {
  Signature sig;
  sig.signer = claimed_signer;
  sig.tag_lo = 0xbadbadbadbadbadbULL;
  sig.tag_hi = 0xdeadbeefdeadbeefULL;
  return sig;
}

void ThresholdCert::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(shares.size()));
  for (const auto& s : shares) s.EncodeTo(enc);
}

bool ThresholdCert::DecodeFrom(Decoder* dec, ThresholdCert* out) {
  uint32_t n;
  if (!dec->GetU32(&n)) return false;
  if (n > 4096) return false;  // sanity bound
  out->shares.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!Signature::DecodeFrom(dec, &out->shares[i])) return false;
  }
  return true;
}

bool ThresholdCert::Valid(const KeyStore& ks, const Sha256Digest& digest,
                          size_t threshold) const {
  std::vector<NodeId> distinct;
  distinct.reserve(shares.size());
  for (const auto& s : shares) {
    if (!ks.VerifyShare(s, digest)) return false;
    AddDistinctSigner(&distinct, s.signer);
  }
  return distinct.size() >= threshold;
}

}  // namespace qanaat
