#include "runtime/message.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "util/bitio.hpp"

namespace nc {

// The 5-bit kind and 4-bit version fields below are what bound kMaxMsgKinds
// and kMaxStreamVersions; keep them in sync.
static_assert(kMaxMsgKinds == (1u << 5),
              "kMaxMsgKinds must match the 5-bit kind field of the header");
static_assert(kMaxStreamVersions == (1u << 4),
              "kMaxStreamVersions must match the 4-bit version field");

unsigned stream_header_bits(unsigned id_bits) noexcept {
  return 5u + id_bits + 4u + 1u;
}

namespace {

// Heap capacities as functions of the sizes (the buffer stores none): the
// next power of two, and at least twice the inline capacity.
std::size_t heap_words(std::size_t bits) noexcept {
  return std::bit_ceil(std::max<std::size_t>((bits + 63) >> 6, 2));
}
std::size_t heap_symbols(std::size_t count) noexcept {
  return std::bit_ceil(std::max<std::size_t>(count, 16));
}

}  // namespace

SymbolBuffer::SymbolBuffer(const SymbolBuffer& other) { *this = other; }

SymbolBuffer::SymbolBuffer(SymbolBuffer&& other) noexcept { take(other); }

SymbolBuffer& SymbolBuffer::operator=(const SymbolBuffer& other) {
  if (this == &other) return *this;
  reset();
  grow_to(other.total_bits_, other.count_);
  total_bits_ = other.total_bits_;
  count_ = other.count_;
  std::memcpy(words_mut(), other.words(), word_count() * sizeof(std::uint64_t));
  std::memcpy(widths_mut(), other.widths(), count_);
  return *this;
}

SymbolBuffer& SymbolBuffer::operator=(SymbolBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    take(other);
  }
  return *this;
}

SymbolBuffer::~SymbolBuffer() {
  if (!is_inline()) ::operator delete(store_.heap.words);
}

void SymbolBuffer::reset() noexcept {
  if (!is_inline()) ::operator delete(store_.heap.words);
  store_.in = Inline{0, {}};
  total_bits_ = 0;
  count_ = 0;
}

void SymbolBuffer::take(SymbolBuffer& other) noexcept {
  store_ = other.store_;
  total_bits_ = other.total_bits_;
  count_ = other.count_;
  other.store_.in = Inline{0, {}};
  other.total_bits_ = 0;
  other.count_ = 0;
}

void SymbolBuffer::grow_to(std::size_t bits, std::size_t count) {
  // Sizes only grow, so a buffer whose new sizes fit inline is inline now.
  if (fits_inline(bits, count)) return;
  const std::size_t cap_words = heap_words(bits);
  const std::size_t cap_symbols = heap_symbols(count);
  const bool spilled = !is_inline();
  if (spilled && cap_words == heap_words(total_bits_) &&
      cap_symbols == heap_symbols(count_)) {
    return;
  }
  auto* block = static_cast<std::uint64_t*>(
      ::operator new(cap_words * sizeof(std::uint64_t) + cap_symbols));
  auto* widths = reinterpret_cast<std::uint8_t*>(block + cap_words);
  const std::size_t used = word_count();
  std::memcpy(block, words(), used * sizeof(std::uint64_t));
  std::memset(block + used, 0, (cap_words - used) * sizeof(std::uint64_t));
  std::memcpy(widths, this->widths(), count_);
  if (spilled) ::operator delete(store_.heap.words);
  store_.heap = Heap{block, widths};
}

void SymbolBuffer::put(std::uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  assert(width == 64 || value < (1ULL << width));
  const std::size_t bit = total_bits_;
  const std::size_t idx = count_;
  grow_to(bit + width, idx + 1);
  total_bits_ = bit + width;
  count_ = idx + 1;
  // Storage past the old payload is zero, so OR-ing the value in is exact.
  std::uint64_t* w = words_mut();
  const std::size_t word = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  w[word] |= value << off;
  if (off + width > 64) w[word + 1] |= value >> (64 - off);
  widths_mut()[idx] = static_cast<std::uint8_t>(width);
}

void SymbolBuffer::append_packed(const std::uint64_t* src_words,
                                 std::size_t src_word_count,
                                 std::size_t src_bit, std::size_t nbits,
                                 const std::uint8_t* widths,
                                 std::size_t count) {
  const std::size_t start_bit = total_bits_;
  const std::size_t start_idx = count_;
  grow_to(start_bit + nbits, start_idx + count);
  total_bits_ = start_bit + nbits;
  count_ = start_idx + count;
  std::memcpy(widths_mut() + start_idx, widths, count);
  // Storage past the old payload is zero, so OR-merging chunks is exact.
  std::uint64_t* w = words_mut();
  std::size_t dst = start_bit;
  std::size_t src = src_bit;
  for (std::size_t rem = nbits; rem > 0;) {
    const unsigned take = rem >= 64 ? 64u : static_cast<unsigned>(rem);
    const std::uint64_t v = read_packed_bits(src_words, src_word_count, src, take);
    const std::size_t word = dst >> 6;
    const unsigned off = static_cast<unsigned>(dst & 63);
    w[word] |= v << off;
    if (off + take > 64) w[word + 1] |= v >> (64 - off);
    dst += take;
    src += take;
    rem -= take;
  }
}

std::uint64_t SymbolCursor::pop() noexcept {
  const unsigned width = buf_->width_at(index_);
  const std::uint64_t v = buf_->value_at(bit_off_, width);
  bit_off_ += width;
  ++index_;
  return v;
}

}  // namespace nc
