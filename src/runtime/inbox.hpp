#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/stream.hpp"
#include "util/check.hpp"

namespace nc {

/// Flat, kind-bucketed store of a node's incoming streams.
///
/// The previous implementation was a `std::map<(ni, StreamKey), InStream>`:
/// every delivery paid a red-black-tree walk and `for_each_in` scanned the
/// whole inbox to filter one kind. Here each message kind in use owns a
/// contiguous bucket kept sorted by (neighbour index, tag, version), so
///  - per-kind iteration touches exactly that kind's streams, in the same
///    deterministic (ni, key) order the old map produced (kind is fixed
///    within a bucket, so (ni, tag, version) order == (ni, StreamKey) order);
///  - lookups are a binary search in a small contiguous bucket;
///  - insertion (rare: first delivery of a stream) is a vector insert.
/// Protocol code observes identical iteration order, which the simulator's
/// bit-for-bit determinism guarantee depends on.
///
/// Buckets are allocated on first use through a 32-entry kind → slot map
/// instead of a static array of kMaxMsgKinds bucket headers: protocols use
/// around a third of the kind space, and the simulator's dominant cost is
/// cold misses on randomly-addressed per-node state (every delivery lands
/// on a different node). The slot map keeps sizeof(Inbox) at ~56 bytes, so
/// a node's whole hot state — counters, inbox header, link vector — packs
/// into a few cache lines instead of striding a ~2 KB struct. Slot order is
/// first-delivery order, which is internal layout only: every lookup goes
/// through the map, so nothing observable depends on it.
///
/// Each bucket is stored structure-of-arrays: a dense vector of 16-byte
/// packed (ni, tag, version) keys that the binary search strides, and a
/// parallel vector of the 32-byte InStream payloads indexed by the same
/// position. An InStream holds payload bits only and keeps its first 64
/// inline, spilling into one heap block past that (stream.hpp), so the
/// typical few-symbol stream lives entirely in its bucket slot: opening it
/// allocates nothing beyond the bucket's own growth, and tearing the inbox
/// down frees nothing per stream. An AoS bucket (key embedded next to its
/// stream) would make every search probe pull a 48-byte element into cache
/// and every insert shift whole InStreams; splitting the keys out keeps
/// four of them per
/// cache line, which matters because the two hottest operations in the
/// whole simulator — open() on each delivered message and find() on each
/// protocol-side poll — both funnel into this search.
///
/// Lookups are memoized per bucket (not one shared slot): deliveries within
/// a round arrive from ascending sources but alternate message kinds, and
/// protocol polls interleave kinds too, so a single memo would be evicted
/// on almost every call. Each kind's memo survives the others' traffic, and
/// both the memoized slot and its successor are tried before the binary
/// search — ascending neighbour-index access patterns (both the round's
/// delivery order and protocol poll loops) make the successor the common
/// case. Memos are validated by value, so a stale index can never change an
/// outcome.
///
/// Consumed-prefix skipping: each bucket keeps a cursor over its leading
/// entries that are *dead for this round* — drained (`available() == 0`)
/// and not closed — and `for_each` starts there, so a node polling a kind
/// every round does not rescan streams it has already drained. The cursor
/// only ever skips entries a visitor cannot act on: nothing to pop, and no
/// closed-stream signal (visitors that count finished streams — the tree
/// and component-announce phases — rely on closed entries staying visible,
/// so closed streams are never skipped). Deadness is monotone under
/// consumption (pops only drain further) and the one reviving event — a
/// delivery — goes through open(), which pulls the cursor back over the
/// revived entry.
///
/// Shard ownership (see network.hpp): an inbox belongs to its node's
/// shard. The deliver phase writes it from the destination shard's thread
/// and the wake phase reads it from the same thread, with a pool barrier
/// between the phases — the inbox itself needs no synchronization.
class Inbox {
 public:
  /// Stream from neighbour index `ni` with key `key`, or nullptr. Shares
  /// open()'s per-bucket memo (protocols poll the same streams every round).
  [[nodiscard]] InStream* find(std::size_t ni, const StreamKey& key) {
    const std::int8_t slot = slot_[check_kind(key.kind)];
    if (slot < 0) return nullptr;
    nc_invariant(static_cast<std::size_t>(slot) < store_.size(),
                 "inbox slot map points past the allocated buckets");
    Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    const Key want = pack(ni, key);
    const std::size_t hit = probe(bucket, want);
    if (hit != kMiss) return &bucket.streams[hit];
    const std::size_t idx = lower_bound(bucket, want);
    if (idx == bucket.keys.size() || !(bucket.keys[idx] == want)) {
      return nullptr;
    }
    bucket.memo = static_cast<std::uint32_t>(idx);
    return &bucket.streams[idx];
  }

  /// Stream from `ni` with key `key`, created empty if absent (runtime use,
  /// on delivery).
  [[nodiscard]] InStream& open(std::size_t ni, const StreamKey& key) {
    Bucket& bucket = bucket_for(check_kind(key.kind));
    nc_invariant(bucket.keys.size() == bucket.streams.size(),
                 "inbox bucket key/stream columns out of sync");
    const Key want = pack(ni, key);
    std::size_t idx = probe(bucket, want);
    if (idx == kMiss) {
      idx = lower_bound(bucket, want);
      if (idx == bucket.keys.size() || !(bucket.keys[idx] == want)) {
        bucket.keys.insert(
            bucket.keys.begin() + static_cast<std::ptrdiff_t>(idx), want);
        bucket.streams.insert(
            bucket.streams.begin() + static_cast<std::ptrdiff_t>(idx),
            InStream{});
      }
      bucket.memo = static_cast<std::uint32_t>(idx);
    }
    // A delivery is about to land on this entry: if the dead-prefix cursor
    // had skipped past it, pull the cursor back so for_each sees the
    // revived stream again. (An insert below the cursor shifts live
    // entries into the prefix too — same fix.)
    if (idx < bucket.dead) {
      bucket.dead = static_cast<std::uint32_t>(idx);
    }
    return bucket.streams[idx];
  }

  /// Invokes `fn(ni, key, stream)` for every stream of `kind`, in ascending
  /// (ni, tag, version) order — starting past the bucket's consumed prefix
  /// (see the class comment; skipped entries are drained and unclosed, so
  /// no visitor behaviour changes).
  template <typename Fn>
  void for_each(std::uint16_t kind, Fn&& fn) {
    const std::int8_t slot = slot_[check_kind(kind)];
    if (slot < 0) return;
    Bucket& bucket = store_[static_cast<std::size_t>(slot)];
    nc_invariant(bucket.dead <= bucket.keys.size(),
                 "inbox dead-prefix cursor ran past the bucket");
    std::uint32_t dead = bucket.dead;
    while (dead < bucket.keys.size()) {
      const InStream& s = bucket.streams[dead];
      if (s.available() != 0 || s.closed()) break;
      ++dead;
    }
    bucket.dead = dead;
    for (std::size_t i = dead; i < bucket.keys.size(); ++i) {
      const Key k = bucket.keys[i];
      const StreamKey key{kind, static_cast<NodeId>(k.tv >> 16),
                          static_cast<std::uint16_t>(k.tv & 0xFFFFu)};
      fn(static_cast<std::size_t>(k.ni), key, bucket.streams[i]);
    }
  }

  /// Total streams stored (all kinds).
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& b : store_) total += b.keys.size();
    return total;
  }

 private:
  /// Packed (ni, tag, version) — 16 bytes, trivially comparable, and the
  /// (ni, tv) lexicographic order equals (ni, tag, version) order because
  /// tv concatenates tag above version.
  struct Key {
    std::uint64_t ni;
    std::uint64_t tv;  ///< tag << 16 | version

    friend bool operator==(const Key& a, const Key& b) noexcept {
      return a.ni == b.ni && a.tv == b.tv;
    }
    friend bool operator<(const Key& a, const Key& b) noexcept {
      return a.ni != b.ni ? a.ni < b.ni : a.tv < b.tv;
    }
  };

  struct Bucket {
    std::vector<Key> keys;
    std::vector<InStream> streams;  ///< parallel to keys

    /// Consumed-prefix cursor: entries [0 .. dead) are all drained-and-
    /// unclosed, so for_each starts at dead. Clamped back by open()
    /// whenever a delivery or insert lands inside the prefix.
    std::uint32_t dead = 0;

    /// Last-hit memo (see class comment); validated by value on every use,
    /// so it can never go stale in an observable way.
    std::uint32_t memo = 0;
  };

  static constexpr std::size_t kMiss = ~static_cast<std::size_t>(0);

  static Key pack(std::size_t ni, const StreamKey& key) noexcept {
    return Key{static_cast<std::uint64_t>(ni),
               (static_cast<std::uint64_t>(key.tag) << 16) | key.version};
  }

  static std::uint16_t check_kind(std::uint16_t kind) {
    if (kind >= kMaxMsgKinds) {
      throw std::invalid_argument("message kind out of range (>= 32)");
    }
    return kind;
  }

  /// The kind's bucket, allocated on first delivery.
  [[nodiscard]] Bucket& bucket_for(std::uint16_t kind) {
    std::int8_t slot = slot_[kind];
    if (slot < 0) {
      slot = static_cast<std::int8_t>(store_.size());
      slot_[kind] = slot;
      store_.emplace_back();
    }
    return store_[static_cast<std::size_t>(slot)];
  }

  /// Memo probe: the bucket's last-hit slot, then its successor (ascending
  /// access patterns). Returns the validated index or kMiss. Updates the
  /// memo on a successor hit.
  [[nodiscard]] static std::size_t probe(Bucket& bucket,
                                         const Key& want) noexcept {
    const std::size_t last = bucket.memo;
    if (last < bucket.keys.size() && bucket.keys[last] == want) return last;
    const std::size_t next = last + 1;
    if (next < bucket.keys.size() && bucket.keys[next] == want) {
      bucket.memo = static_cast<std::uint32_t>(next);
      return next;
    }
    return kMiss;
  }

  static std::size_t lower_bound(const Bucket& bucket, const Key& want) {
    return static_cast<std::size_t>(
        std::lower_bound(bucket.keys.begin(), bucket.keys.end(), want) -
        bucket.keys.begin());
  }

  /// kind → index into store_, -1 while the kind has never received.
  std::array<std::int8_t, kMaxMsgKinds> slot_ = init_slots();

  /// Buckets of the kinds in use, in first-delivery order.
  std::vector<Bucket> store_;

  static constexpr std::array<std::int8_t, kMaxMsgKinds> init_slots() {
    std::array<std::int8_t, kMaxMsgKinds> s{};
    for (auto& v : s) v = -1;
    return s;
  }
};

}  // namespace nc
