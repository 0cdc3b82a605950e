#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>

#include "util/ids.hpp"

namespace nc {

/// Identifies a logical stream of symbols between two adjacent nodes.
///
/// `kind` is a protocol-defined message kind (goes on the wire in 5 bits),
/// `tag` is protocol context — almost always the ID of the component root the
/// stream belongs to (id_width(n) bits on the wire) — and `version` is the
/// boosting version index of Section 4.1 (4 bits on the wire, so up to 16
/// interleaved versions).
struct StreamKey {
  std::uint16_t kind = 0;
  NodeId tag = 0;
  std::uint16_t version = 0;

  auto operator<=>(const StreamKey&) const = default;
};

/// Number of distinct message kinds the wire format supports. The stream
/// header encodes the kind in 5 bits (see stream_header_bits), so kinds are
/// restricted to [0, 32): the runtime's fixed-size per-kind tables
/// (RunStats::bits_by_kind, rx counters, inbox buckets) are sized by this
/// and NodeApi::open_stream rejects anything out of range instead of
/// silently aliasing counters.
inline constexpr std::uint16_t kMaxMsgKinds = 32;

/// Number of distinct stream versions the wire format supports: the header
/// encodes the boosting version index in 4 bits, so versions live in
/// [0, 16). NodeApi::open_stream rejects anything out of range — versions
/// 16 and 0 would alias on the wire and the header accounting would
/// undercharge.
inline constexpr std::uint16_t kMaxStreamVersions = 16;

/// Number of header bits a physical message spends identifying its stream:
/// kind (5) + tag (id bits) + version (4) + end-of-stream flag (1).
/// FIFO links neither lose nor reorder, so no sequence number is needed.
unsigned stream_header_bits(unsigned id_bits) noexcept;

/// Append-only packed run of bits: the one implementation of bit packing.
///
/// A BitRun knows no symbol boundaries — widths are the sender's business
/// (SymbolBuffer below) and the reader's (the protocol's message format).
/// It is the receive-side payload store of every InStream and the payload
/// half of every SymbolBuffer; the runtime moves bits between them in
/// 64-bit chunks (copy_out into a staged row, append_packed out of it).
///
/// Small-buffer storage: the first 64 bits live inside the object, so the
/// typical stream of a few O(log n)-bit symbols never touches the heap.
/// A run that outgrows the word spills into one heap block and stays
/// there. The representation is a pure function of bit_size() — inline iff
/// bit_size() <= 64 — and so is the heap capacity, so the object stores no
/// flag and no capacity: 16 bytes. Moves steal the heap block and are
/// noexcept, so containers of runs relocate instead of copying. An append
/// (spill or reallocation) or a move of the run itself may move words():
/// readers fetch it per use and never keep it across either.
class BitRun {
 public:
  BitRun() noexcept = default;
  BitRun(const BitRun& other);
  BitRun(BitRun&& other) noexcept;
  BitRun& operator=(const BitRun& other);
  BitRun& operator=(BitRun&& other) noexcept;
  ~BitRun();

  /// Appends the `width` (1..64) low bits of `value`. Precondition:
  /// value < 2^width.
  void put(std::uint64_t value, unsigned width);

  /// Appends `nbits` bits read from a word array starting at its bit 0
  /// (little-endian bit order within each word; bits of the last word past
  /// `nbits` are ignored). Produces the exact run a sequence of put() calls
  /// with the same bits would. The source must not be this run's own
  /// storage (growing it may move that storage).
  void append_packed(const std::uint64_t* src, std::size_t nbits);

  /// The `width` (1..64) bits starting at bit `bit`. Precondition:
  /// bit + width <= bit_size().
  [[nodiscard]] std::uint64_t read(std::size_t bit,
                                   unsigned width) const noexcept {
    const std::size_t word = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    const std::uint64_t* w = words();
    std::uint64_t v = w[word] >> off;
    if (off + width > 64) v |= w[word + 1] << (64 - off);
    if (width < 64) v &= (1ULL << width) - 1;
    return v;
  }

  /// Copies bits [bit, bit + nbits) word-aligned into `dst`, which must hold
  /// (nbits + 63) / 64 words; bits of the last word past `nbits` are zero.
  /// Precondition: bit + nbits <= bit_size().
  void copy_out(std::size_t bit, std::size_t nbits,
                std::uint64_t* dst) const noexcept {
    for (std::size_t k = 0; nbits > 0; ++k) {
      const unsigned take = nbits >= 64 ? 64u : static_cast<unsigned>(nbits);
      dst[k] = read(bit + (k << 6), take);
      nbits -= take;
    }
  }

  /// Total bits stored.
  [[nodiscard]] std::size_t bit_size() const noexcept { return bits_; }

  /// Raw packed words (little-endian bit order within each word); bits past
  /// bit_size() in the last word are zero.
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return is_inline() ? &store_.word : store_.heap;
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (bits_ + 63) >> 6;
  }

 private:
  static constexpr std::size_t kInlineBits = 64;

  /// The inline word, or the start of the one operator-new heap block.
  union Store {
    std::uint64_t word;
    std::uint64_t* heap;
  };

  [[nodiscard]] bool is_inline() const noexcept {
    return bits_ <= kInlineBits;
  }

  /// Makes room for `bits` (at least bit_size()) bits and sets bit_size()
  /// to it: spills to, or reallocates, the heap block when the capacity
  /// for the new size differs from the current one. Words past the old
  /// size are zero afterwards, as writers OR into them. Returns the
  /// writable words.
  std::uint64_t* grow_to(std::size_t bits);

  /// Frees the heap block, if any, and resets to the empty inline run.
  void reset() noexcept;

  /// Takes over `other`'s storage (this must hold no heap block) and
  /// leaves `other` empty and inline.
  void take(BitRun& other) noexcept;

  Store store_{0};
  std::size_t bits_ = 0;
};

/// Append-only packed buffer of variable-width symbols: the producer side
/// of a stream.
///
/// A symbol is an unsigned value together with its width in bits; the width
/// is what the link packs into a message and what the CONGEST accountant
/// charges. Only the sender needs it: links never split a symbol, and the
/// receiver pops each symbol with the width its message format fixes. So
/// a SymbolBuffer is a BitRun of payload plus a second BitRun of one width
/// byte per symbol, read by Link::schedule_view and nothing downstream of
/// it. Both runs keep their first 64 bits inline — 8 symbols of up to 64
/// payload bits never touch the heap — so the buffer is 32 bytes. Buffers
/// are immutable once handed to the runtime and may be shared among many
/// outgoing links (a broadcast writes its payload once).
class SymbolBuffer {
 public:
  /// Appends a symbol of `width` bits (1..64). Precondition: value < 2^width.
  void put(std::uint64_t value, unsigned width) {
    bits_.put(value, width);
    widths_.put(width, 8);
  }

  /// Appends a single bit.
  void put_bit(bool b) { put(b ? 1 : 0, 1); }

  /// Number of symbols stored.
  [[nodiscard]] std::size_t size() const noexcept {
    return widths_.bit_size() >> 3;
  }

  /// Total payload width in bits.
  [[nodiscard]] std::size_t bit_size() const noexcept {
    return bits_.bit_size();
  }

  /// Width of the idx-th symbol.
  [[nodiscard]] unsigned width_at(std::size_t idx) const noexcept {
    return static_cast<unsigned>(widths_.read(idx << 3, 8));
  }

  /// The packed payload bits.
  [[nodiscard]] const BitRun& bits() const noexcept { return bits_; }

 private:
  BitRun bits_;
  BitRun widths_;  ///< one byte per symbol
};

}  // namespace nc
