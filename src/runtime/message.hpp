#pragma once

#include <array>
#include <compare>
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

/// Append-only packed buffer of variable-width symbols.
///
/// A symbol is an unsigned value together with its width in bits; the width
/// is what the CONGEST accountant charges for it. Buffers are immutable once
/// handed to the runtime and may be shared among many outgoing links (a
/// broadcast writes its payload once). Readers walk it with
/// width_at / value_at, tracking the bit offset themselves (InStream::pop).
///
/// Small-buffer storage: almost every stream the protocols open carries a
/// handful of O(log n)-bit symbols (1-bit flags, acks, votes, short lists),
/// so the first 64 payload bits and the first 8 symbol widths live inside
/// the object and such a buffer never touches the heap. A buffer that
/// outgrows either spills both arrays into one heap block (words, then
/// widths) and stays there. The representation is a pure function of
/// (size(), bit_size()) — inline iff size() <= 8 and bit_size() <= 64 —
/// and so are the heap capacities, so the object stores no flag and no
/// capacity: 32 bytes. Moves steal the heap block and are noexcept, so
/// containers of streams relocate instead of copying. An append (spill or
/// reallocation) or a move of the buffer itself may move words() and
/// widths(): readers fetch them per use and never keep them across either.
class SymbolBuffer {
 public:
  SymbolBuffer() noexcept = default;
  SymbolBuffer(const SymbolBuffer& other);
  SymbolBuffer(SymbolBuffer&& other) noexcept;
  SymbolBuffer& operator=(const SymbolBuffer& other);
  SymbolBuffer& operator=(SymbolBuffer&& other) noexcept;
  ~SymbolBuffer();

  /// Appends a symbol of `width` bits (1..64). Precondition: value < 2^width.
  void put(std::uint64_t value, unsigned width);

  /// Appends a single bit.
  void put_bit(bool b) { put(b ? 1 : 0, 1); }

  /// Number of symbols stored.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Total payload width in bits.
  [[nodiscard]] std::size_t bit_size() const noexcept { return total_bits_; }

  /// Width of the idx-th symbol.
  [[nodiscard]] unsigned width_at(std::size_t idx) const noexcept {
    return widths()[idx];
  }

  /// Value of the symbol starting at bit offset `bit_off` with given width.
  [[nodiscard]] std::uint64_t value_at(std::size_t bit_off,
                                       unsigned width) const noexcept {
    const std::size_t word = bit_off >> 6;
    const unsigned off = static_cast<unsigned>(bit_off & 63);
    const std::uint64_t* w = words();
    std::uint64_t v = w[word] >> off;
    if (off + width > 64) v |= w[word + 1] << (64 - off);
    if (width < 64) v &= (1ULL << width) - 1;
    return v;
  }

  /// Raw packed words (little-endian bit order within each word). With
  /// word_count() and widths(), lets the runtime's SoA lanes blit symbol
  /// runs in 64-bit chunks instead of re-packing symbol by symbol.
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return is_inline() ? &store_.in.word : store_.heap.words;
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (total_bits_ + 63) >> 6;
  }
  [[nodiscard]] const std::uint8_t* widths() const noexcept {
    return is_inline() ? store_.in.widths.data() : store_.heap.widths;
  }

  /// Bulk append: copies `count` symbols totalling `nbits` payload bits out
  /// of another packed word array, starting at bit `src_bit`. Produces the
  /// exact buffer a sequence of put() calls with the same values/widths
  /// would — the deliver path uses it to move a whole message in word-sized
  /// chunks. The source must not be this buffer's own storage (growing it
  /// may move that storage).
  void append_packed(const std::uint64_t* src_words, std::size_t src_word_count,
                     std::size_t src_bit, std::size_t nbits,
                     const std::uint8_t* widths, std::size_t count);

 private:
  static constexpr std::size_t kInlineBits = 64;
  static constexpr std::size_t kInlineSymbols = 8;

  /// Inline payload word and widths, used while the buffer fits them.
  struct Inline {
    std::uint64_t word;
    std::array<std::uint8_t, kInlineSymbols> widths;
  };
  /// The spilled block: `words` is the start of one operator-new block
  /// that holds heap_words(bit_size()) words followed by the widths.
  struct Heap {
    std::uint64_t* words;
    std::uint8_t* widths;
  };
  union Store {
    Inline in;
    Heap heap;
  };

  [[nodiscard]] bool is_inline() const noexcept {
    return fits_inline(total_bits_, count_);
  }
  [[nodiscard]] static bool fits_inline(std::size_t bits,
                                        std::size_t count) noexcept {
    return bits <= kInlineBits && count <= kInlineSymbols;
  }

  /// Makes room for `bits` payload bits and `count` symbols (both at least
  /// the current sizes): spills to, or reallocates, the heap block when the
  /// capacities for the new sizes differ from the current ones. Words past
  /// the payload are zero afterwards, as writers OR into them.
  void grow_to(std::size_t bits, std::size_t count);

  /// Writable views of the current storage.
  [[nodiscard]] std::uint64_t* words_mut() noexcept {
    return is_inline() ? &store_.in.word : store_.heap.words;
  }
  [[nodiscard]] std::uint8_t* widths_mut() noexcept {
    return is_inline() ? store_.in.widths.data() : store_.heap.widths;
  }

  /// Frees the heap block, if any, and resets to the empty inline buffer.
  void reset() noexcept;

  /// Takes over `other`'s storage (this must hold no heap block) and
  /// leaves `other` empty and inline.
  void take(SymbolBuffer& other) noexcept;

  Store store_{Inline{0, {}}};
  std::size_t total_bits_ = 0;
  std::size_t count_ = 0;
};

/// Reads `take` (1..64) bits starting at absolute bit `bit` from a packed
/// word array. `word_count` guards the straddling read at the array's end.
[[nodiscard]] inline std::uint64_t read_packed_bits(
    const std::uint64_t* words, std::size_t word_count, std::size_t bit,
    unsigned take) noexcept {
  const std::size_t word = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  std::uint64_t v = words[word] >> off;
  if (off != 0 && word + 1 < word_count) v |= words[word + 1] << (64 - off);
  if (take < 64) v &= (1ULL << take) - 1;
  return v;
}

}  // namespace nc
