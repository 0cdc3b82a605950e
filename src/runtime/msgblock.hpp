#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace nc {

/// Block of staged messages — the storage behind the engine's
/// (src-shard → dst-shard) lanes and the fault engine's delayed buckets.
///
/// Each row is one staged payload in a flat array of fixed-size rows
/// (source edge range, stream key, meta flags, wire bits, symbol count,
/// deliver round, two inline words) — a deliver phase is a linear scan, no
/// pointer chasing, no per-message heap symbol vector. The payload encoding
/// is two-tier:
///   - *inline*: messages of at most two symbols — the dominant CONGEST
///     kinds carry 1–2 machine words — store their symbol values directly
///     in v0/v1 and their widths packed into w01;
///   - *spilled*: anything larger blits its packed payload into the block's
///     shared payload region (word-aligned per message, so copies between
///     blocks are memcpys) and stores (word offset, width offset) in v0/v1.
/// Either way the payload is copied at most once per lane at stage time,
/// straight from the producer's shared SymbolBuffer via a MsgView.
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
/// Backing storage is ArenaVecs: lanes bind the owning shard's per-round
/// Arena (begin_round() re-carves them after the arena's O(1) reset);
/// delayed buckets stay heap-backed, because they outlive rounds and a bump
/// arena can never rewind one bucket out of the middle of a round's
/// allocations. RunStats bit accounting: wire_bits carries header +
/// payload, exactly as Link::schedule_view computed it.
class MsgBlock {
 public:
  /// Decoded row handed to the deliver phase.
  struct Rec {
    std::size_t edge;      ///< first directed edge of the row's range
    std::uint32_t copies;  ///< edges in the range (1 = unicast)
    StreamKey key;
    bool eos;
    bool spilled;
    std::uint32_t symbol_count;
    std::uint64_t wire_bits;
    std::uint64_t deliver_round;
    // Inline payload (spilled == false): up to two value/width pairs.
    std::uint64_t v0, v1;
    unsigned w0, w1;
    // Spilled payload (spilled == true): word-aligned packed symbol run.
    const std::uint64_t* pay_words;
    std::size_t pay_word_count;
    std::size_t pay_bits;
    const std::uint8_t* pay_widths;
  };

  /// Binds the storage to `arena` (nullptr = heap mode). Call once, while
  /// empty.
  void bind(Arena* arena) noexcept {
    nc_invariant(empty() && msg_count_ == 0,
                 "MsgBlock::bind must run on an empty block");
    rows_.bind(arena);
    pay_words_.bind(arena);
    pay_widths_.bind(arena);
    arena_mode_ = arena != nullptr;
  }

  /// Arena mode only: called after the owning arena's reset() invalidated
  /// last round's spans. Drops them and re-carves capacity for the sizes the
  /// previous round needed, so a steady-state round allocates each array
  /// exactly once and never grows mid-round.
  void begin_round() {
    const std::size_t rows = rows_.size();
    const std::size_t words = pay_words_.size();
    const std::size_t wids = pay_widths_.size();
    rows_.release();
    pay_words_.release();
    pay_widths_.release();
    msg_count_ = 0;
    if (arena_mode_) {
      if (rows > 0) rows_.reserve(rows);
      if (words > 0) pay_words_.reserve(words);
      if (wids > 0) pay_widths_.reserve(wids);
    }
  }

  /// Stages one scheduled message on directed edge `edge` as a new 1-copy
  /// row. The view's payload is copied into the block now (inline words or
  /// a word-aligned blit into the payload region); the caller may prune the
  /// source link afterwards.
  void push(const MsgView& v, std::size_t edge, std::uint64_t deliver_round) {
    const bool spill = v.symbol_count > kInlineSymbols;
    Row& row = *rows_.append(1);
    row.edge = edge;
    row.deliver_round = deliver_round;
    row.wire_bits = v.wire_bits;
    row.tag = v.key.tag;
    row.copies = 1;
    row.symbol_count = static_cast<std::uint32_t>(v.symbol_count);
    row.meta = pack_meta(v.key, v.eos, spill);
    if (!spill) {
      unsigned w0 = 0, w1 = 0;
      row.v0 = row.v1 = 0;
      if (v.symbol_count >= 1) {
        w0 = v.buf->width_at(v.first_symbol);
        row.v0 = v.buf->value_at(v.bit_off, w0);
      }
      if (v.symbol_count == 2) {
        w1 = v.buf->width_at(v.first_symbol + 1);
        row.v1 = v.buf->value_at(v.bit_off + w0, w1);
      }
      row.w01 = static_cast<std::uint16_t>(w0 | (w1 << 8));
    } else {
      row.v0 = pay_words_.size();
      row.v1 = pay_widths_.size();
      row.w01 = 0;
      const std::size_t nwords = (v.bit_len + 63) >> 6;
      std::uint64_t* dst = pay_words_.append(nwords);
      std::size_t rem = v.bit_len;
      for (std::size_t w = 0; rem > 0; ++w) {
        const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
        dst[w] = read_packed_bits(v.buf->words(), v.buf->word_count(),
                                  v.bit_off + (w << 6), take);
        rem -= take;
      }
      std::memcpy(pay_widths_.append(v.symbol_count),
                  v.buf->widths() + v.first_symbol, v.symbol_count);
    }
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

  /// Copies row `i` of `src` into this block (delayed-bucket hand-off; this
  /// block is heap-backed, the source lane is arena-backed and about to be
  /// reset). Spilled payloads are word-aligned, so the copy is a memcpy.
  void append_from(const MsgBlock& src, std::size_t i, unsigned header_bits) {
    Row row = src.rows_[i];
    if ((row.meta & kSpillBit) != 0) {
      const std::size_t nwords = (row.wire_bits - header_bits + 63) >> 6;
      std::memcpy(pay_words_.append(nwords), src.pay_words_.data() + row.v0,
                  nwords * sizeof(std::uint64_t));
      std::memcpy(pay_widths_.append(row.symbol_count),
                  src.pay_widths_.data() + row.v1, row.symbol_count);
      row.v0 = pay_words_.size() - nwords;
      row.v1 = pay_widths_.size() - row.symbol_count;
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
    r.spilled = (row.meta & kSpillBit) != 0;
    r.symbol_count = row.symbol_count;
    r.wire_bits = row.wire_bits;
    r.deliver_round = row.deliver_round;
    if (!r.spilled) {
      r.v0 = row.v0;
      r.v1 = row.v1;
      r.w0 = row.w01 & 0xffu;
      r.w1 = row.w01 >> 8;
      r.pay_words = nullptr;
      r.pay_word_count = 0;
      r.pay_bits = 0;
      r.pay_widths = nullptr;
    } else {
      r.v0 = r.v1 = 0;
      r.w0 = r.w1 = 0;
      r.pay_bits = static_cast<std::size_t>(row.wire_bits) - header_bits;
      r.pay_word_count = (r.pay_bits + 63) >> 6;
      r.pay_words = pay_words_.data() + row.v0;
      r.pay_widths = pay_widths_.data() + row.v1;
    }
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

 private:
  static constexpr std::size_t kInlineSymbols = 2;
  static constexpr std::uint16_t kEosBit = 1u << 9;
  static constexpr std::uint16_t kSpillBit = 1u << 10;

  /// One staged payload and the edge range it is sent on (56 bytes).
  struct Row {
    std::uint64_t edge;           ///< first directed edge of the range
    std::uint64_t deliver_round;  ///< fault-engine deliver round (0 = now)
    std::uint64_t wire_bits;
    std::uint64_t v0;  ///< inline value 0 / payload word offset
    std::uint64_t v1;  ///< inline value 1 / payload width offset
    NodeId tag;
    std::uint32_t copies;  ///< edges in the range
    std::uint32_t symbol_count;
    std::uint16_t meta;
    std::uint16_t w01;  ///< inline widths, low byte w0, high w1
  };

  // meta layout: kind (5 bits) | version (4 bits) | eos (1) | spilled (1).
  // The widths mirror the wire header's fields (see stream_header_bits), so
  // kMaxMsgKinds/kMaxStreamVersions bound them by construction.
  static std::uint16_t pack_meta(const StreamKey& key, bool eos,
                                 bool spill) noexcept {
    return static_cast<std::uint16_t>(key.kind | (key.version << 5) |
                                      (eos ? kEosBit : 0) |
                                      (spill ? kSpillBit : 0));
  }

  ArenaVec<Row> rows_;
  ArenaVec<std::uint64_t> pay_words_;  ///< spilled payloads, word-aligned
  ArenaVec<std::uint8_t> pay_widths_;  ///< spilled payloads' symbol widths
  std::size_t msg_count_ = 0;  ///< physical messages (sum of row copies)
  bool arena_mode_ = false;
};

}  // namespace nc
