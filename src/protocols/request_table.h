#ifndef QANAAT_PROTOCOLS_REQUEST_TABLE_H_
#define QANAAT_PROTOCOLS_REQUEST_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace qanaat {

/// Open-addressed flat map from request identity (client, client
/// timestamp) to a timestamp — the shape of every per-request dedup
/// record an ordering node keeps (intake, observation, permanent
/// at-most-once). These tables are touched once or more per transaction
/// per replica, where std::unordered_map paid a node allocation per
/// insert and a pointer chase per lookup; here an entry is 24 contiguous
/// bytes, inserts never allocate below the load cap, and the periodic
/// expiry sweep rebuilds the table instead of unlinking entries one by
/// one. Linear probing with power-of-two capacity and load factor <= 1/2
/// keeps probe runs short; kInvalidNode marks an empty slot (no real
/// client carries that id).
class RequestTable {
 private:
  struct Entry {
    uint64_t ts = 0;
    SimTime when = 0;
    NodeId client = kInvalidNode;
  };

  static constexpr size_t kMinCapacity = 64;

 public:
  using RequestId = std::pair<NodeId, uint64_t>;

  /// Inserts or overwrites the timestamp for `id`.
  void Put(const RequestId& id, SimTime when) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Entry& e = slots_[ProbeFor(id, slots_)];
    if (e.client == kInvalidNode) {
      e.client = id.first;
      e.ts = id.second;
      ++size_;
    }
    e.when = when;
  }

  /// Timestamp recorded for `id`, or nullptr when absent.
  const SimTime* Find(const RequestId& id) const {
    if (slots_.empty()) return nullptr;
    const Entry& e = slots_[ProbeFor(id, slots_)];
    return e.client == kInvalidNode ? nullptr : &e.when;
  }

  bool Contains(const RequestId& id) const { return Find(id) != nullptr; }

  /// Drops every entry with timestamp < horizon by rebuilding — O(n)
  /// once per expiry window, amortized against the per-entry unlink walk
  /// of the map it replaced.
  void PurgeBefore(SimTime horizon) {
    if (slots_.empty()) return;
    std::vector<Entry> fresh(slots_.size());
    size_t kept = 0;
    for (const Entry& e : slots_) {
      if (e.client == kInvalidNode || e.when < horizon) continue;
      fresh[ProbeFor({e.client, e.ts}, fresh)] = e;
      ++kept;
    }
    slots_.swap(fresh);
    size_ = kept;
  }

  size_t size() const { return size_; }

 private:
  static size_t Hash(const RequestId& id) {
    return static_cast<size_t>(
        Mix64((static_cast<uint64_t>(id.first) << 32) ^
              (id.second + 0x9e3779b97f4a7c15ULL)));
  }

  /// Index of the slot holding `id`, or of the empty slot where it
  /// belongs.
  static size_t ProbeFor(const RequestId& id,
                         const std::vector<Entry>& slots) {
    size_t mask = slots.size() - 1;
    size_t i = Hash(id) & mask;
    while (slots[i].client != kInvalidNode &&
           (slots[i].client != id.first || slots[i].ts != id.second)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }

  void Rehash(size_t capacity) {
    std::vector<Entry> fresh(capacity);
    for (const Entry& e : slots_) {
      if (e.client == kInvalidNode) continue;
      fresh[ProbeFor({e.client, e.ts}, fresh)] = e;
    }
    slots_.swap(fresh);
  }

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

}  // namespace qanaat

#endif  // QANAAT_PROTOCOLS_REQUEST_TABLE_H_
