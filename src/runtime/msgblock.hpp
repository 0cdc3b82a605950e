#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace nc {

/// Block of staged messages — the storage behind the engine's
/// (src-shard → dst-shard) lanes and the fault engine's delayed buckets.
///
/// Each row is one staged payload in a flat array of fixed-size rows
/// (source edge range, stream key, meta flags, wire bits, deliver round,
/// two payload words) — a deliver phase is a linear scan, no pointer
/// chasing, no per-message heap allocation. A row carries payload bits
/// only: symbol widths stay with the sender (Link::schedule_view charged
/// them into wire_bits), and the receiver pops symbols by the widths its
/// message format fixes. The payload bit length is wire_bits minus the
/// header, so the encoding is a pure function of it:
///   - *inline*: a payload of at most 128 bits — every CONGEST message at
///     the default 8·log n bandwidth for n < 2^19 — sits in the row's own
///     two words;
///   - *spilled*: anything larger is copied word-aligned into the block's
///     shared payload region (so copies between blocks are memcpys) and the
///     row's first word holds its word offset.
/// Either way the payload is copied at most once per lane at stage time,
/// straight from the producer's shared SymbolBuffer via a MsgView, and
/// record() hands the deliver phase one (words, bits) view for both.
///
/// Rows address *source edges*, not destinations: a row is the directed-edge
/// range [edge, edge + copies) of one sender, every copy carrying the row's
/// payload. A unicast is a 1-copy row. A stream opened on many links
/// (open_stream_all) drains identically on every sibling link, and sibling
/// links are consecutive directed edges, so the stage phase stages a whole
/// broadcast as one row per destination lane (a contiguous shard holds a
/// contiguous block of the sender's sorted neighbours). The deliver phase
/// reads each copy's destination and reverse index from the network's CSR
/// mirror. The fault engine decides loss and delay per copy, so the stage
/// rule is: a copy extends the lane's last row only when that row is on time,
/// ends right at the copy's edge, and the copy is on time too (add_copy). A
/// dropped copy leaves a gap that ends the row; a delayed copy becomes its
/// own 1-copy row carrying its deliver round. Rows that split off a
/// broadcast share its payload (inline words are repeated, a spilled payload
/// is referenced, not re-copied). Expanding the rows in order reproduces the
/// per-edge staged sequence — and its RunStats — bit for bit: every copy
/// charges the full wire_bits.
///
/// Backing storage is two std::vectors (rows, spilled payload words). A lane
/// is clear()ed at the top of each stage phase and keeps its capacity, so a
/// steady-state round allocates nothing; a delayed bucket is the same type,
/// filled by append_from and dropped once delivered. RunStats bit
/// accounting: wire_bits carries header + payload, exactly as
/// Link::schedule_view computed it.
class MsgBlock {
 public:
  /// Payloads up to this many bits are stored in the row itself.
  static constexpr std::size_t kInlineBits = 128;

  /// Decoded row handed to the deliver phase.
  struct Rec {
    std::size_t edge;      ///< first directed edge of the row's range
    std::uint32_t copies;  ///< edges in the range (1 = unicast)
    StreamKey key;
    bool eos;
    std::uint64_t wire_bits;
    std::uint64_t deliver_round;
    /// Payload: `pay_bits` bits from bit 0 of `pay_words` (the row's own
    /// words or the spilled region). Valid until the block is next changed.
    const std::uint64_t* pay_words;
    std::size_t pay_bits;
  };

  /// Empties the block for a new round. Capacity is kept, so a steady-state
  /// round stages into the arrays the previous rounds grew and allocates
  /// nothing.
  void clear() noexcept {
    rows_.clear();
    pay_words_.clear();
    msg_count_ = 0;
  }

  /// Stages one scheduled message on directed edge `edge` as a new 1-copy
  /// row. The view's payload bits are copied into the block now (the row's
  /// words or a word-aligned blit into the payload region); the caller may
  /// prune the source link afterwards.
  void push(const MsgView& v, std::size_t edge, std::uint64_t deliver_round) {
    Row& row = rows_.emplace_back();  // value-initialized: pay[] is zero
    row.edge = edge;
    row.deliver_round = deliver_round;
    row.wire_bits = v.wire_bits;
    row.tag = v.key.tag;
    row.copies = 1;
    row.meta = pack_meta(v.key, v.eos);
    std::uint64_t* dst = row.pay;
    if (v.bit_len > kInlineBits) {
      row.pay[0] = pay_words_.size();
      dst = append_words((v.bit_len + 63) >> 6);
    }
    v.buf->bits().copy_out(v.bit_off, v.bit_len, dst);
    ++msg_count_;
  }

  /// Stages one more copy of the block's *last* row's payload on directed
  /// edge `edge`. The caller (the stage phase's broadcast grouping)
  /// guarantees the last row was staged from the same scheduled view —
  /// nothing else may have been pushed in between. The copy extends the
  /// last row when both are on time and the row's range ends right at
  /// `edge`; otherwise (a gap left by a dropped copy, or a delay on either
  /// side) it opens a 1-copy row that shares the last row's payload. Either
  /// way the payload bytes are not copied again — that is the point.
  void add_copy(std::size_t edge, std::uint64_t deliver_round) {
    nc_invariant(!rows_.empty(),
                 "add_copy needs a staged row to share the payload of");
    ++msg_count_;
    Row& last = rows_.back();
    if (deliver_round == 0 && last.deliver_round == 0 &&
        last.edge + last.copies == edge) {
      ++last.copies;
      return;
    }
    Row row = last;  // a value: push_back may move the array
    row.edge = edge;
    row.copies = 1;
    row.deliver_round = deliver_round;
    rows_.push_back(row);
  }

  /// Copies row `i` of `src` into this block (delayed-bucket hand-off: the
  /// source lane is cleared next round, the bucket keeps its own copy).
  /// Spilled payloads are word-aligned, so the copy is a memcpy.
  void append_from(const MsgBlock& src, std::size_t i, unsigned header_bits) {
    Row row = src.rows_[i];
    const std::size_t bits = row.wire_bits - header_bits;
    if (bits > kInlineBits) {
      const std::size_t nwords = (bits + 63) >> 6;
      std::memcpy(append_words(nwords), src.pay_words_.data() + row.pay[0],
                  nwords * sizeof(std::uint64_t));
      row.pay[0] = pay_words_.size() - nwords;
    }
    rows_.push_back(row);
    msg_count_ += row.copies;
  }

  /// Decodes row `i`. `header_bits` recovers the payload bit length from
  /// wire_bits (wire = header + payload by construction).
  [[nodiscard]] Rec record(std::size_t i, unsigned header_bits) const {
    nc_invariant(i < rows_.size(), "MsgBlock row index out of range");
    const Row& row = rows_[i];
    Rec r;
    r.edge = static_cast<std::size_t>(row.edge);
    r.copies = row.copies;
    r.key = StreamKey{static_cast<std::uint16_t>(row.meta & 31u), row.tag,
                      static_cast<std::uint16_t>((row.meta >> 5) & 15u)};
    r.eos = (row.meta & kEosBit) != 0;
    r.wire_bits = row.wire_bits;
    r.deliver_round = row.deliver_round;
    r.pay_bits = static_cast<std::size_t>(row.wire_bits) - header_bits;
    r.pay_words =
        r.pay_bits > kInlineBits ? pay_words_.data() + row.pay[0] : row.pay;
    return r;
  }

  /// Rows (a broadcast row is one row however many copies it carries).
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// First directed edge of row `i` (the deliver phase's prefetch peek).
  [[nodiscard]] std::size_t edge(std::size_t i) const noexcept {
    return static_cast<std::size_t>(rows_[i].edge);
  }

  /// Physical messages staged — the copies of every row. What
  /// lane_msgs_peak and the per-edge accounting count.
  [[nodiscard]] std::size_t message_count() const noexcept {
    return msg_count_;
  }

  /// Bytes of row and payload storage the block holds (capacity, not size).
  /// clear() keeps it, so it only grows; what arena_bytes_* report.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return rows_.capacity() * sizeof(Row) +
           pay_words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint16_t kEosBit = 1u << 9;

  /// One staged payload and the edge range it is sent on (56 bytes).
  struct Row {
    std::uint64_t edge;           ///< first directed edge of the range
    std::uint64_t deliver_round;  ///< fault-engine deliver round (0 = now)
    std::uint64_t wire_bits;
    std::uint64_t pay[2];  ///< inline payload / pay[0] = spilled word offset
    NodeId tag;
    std::uint32_t copies;  ///< edges in the range
    std::uint16_t meta;
  };

  // meta layout: kind (5 bits) | version (4 bits) | eos (1). The widths
  // mirror the wire header's fields (see stream_header_bits), so
  // kMaxMsgKinds/kMaxStreamVersions bound them by construction.
  static std::uint16_t pack_meta(const StreamKey& key, bool eos) noexcept {
    return static_cast<std::uint16_t>(key.kind | (key.version << 5) |
                                      (eos ? kEosBit : 0));
  }

  /// Appends `count` payload words and returns the first (zeroed; the
  /// caller overwrites them).
  std::uint64_t* append_words(std::size_t count) {
    const std::size_t at = pay_words_.size();
    pay_words_.resize(at + count);
    return pay_words_.data() + at;
  }

  std::vector<Row> rows_;
  std::vector<std::uint64_t> pay_words_;  ///< spilled payloads, word-aligned
  std::size_t msg_count_ = 0;  ///< physical messages (sum of row copies)
};

}  // namespace nc
