#include "runtime/message.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

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

// Heap capacity as a function of the size (the run stores none): the next
// power of two, and at least twice the inline word.
std::size_t heap_words(std::size_t bits) noexcept {
  return std::bit_ceil(std::max<std::size_t>((bits + 63) >> 6, 2));
}

// ORs the `width` low bits of `v` into `w` at bit `bit`; the storage there
// is zero, so the OR is exact.
void or_bits(std::uint64_t* w, std::size_t bit, std::uint64_t v,
             unsigned width) noexcept {
  const std::size_t word = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  w[word] |= v << off;
  if (off + width > 64) w[word + 1] |= v >> (64 - off);
}

}  // namespace

BitRun::BitRun(const BitRun& other) { *this = other; }

BitRun::BitRun(BitRun&& other) noexcept { take(other); }

BitRun& BitRun::operator=(const BitRun& other) {
  if (this == &other) return *this;
  reset();
  std::uint64_t* w = grow_to(other.bits_);
  std::memcpy(w, other.words(), word_count() * sizeof(std::uint64_t));
  return *this;
}

BitRun& BitRun::operator=(BitRun&& other) noexcept {
  if (this != &other) {
    reset();
    take(other);
  }
  return *this;
}

BitRun::~BitRun() {
  if (!is_inline()) ::operator delete(store_.heap);
}

void BitRun::reset() noexcept {
  if (!is_inline()) ::operator delete(store_.heap);
  store_.word = 0;
  bits_ = 0;
}

void BitRun::take(BitRun& other) noexcept {
  store_ = other.store_;
  bits_ = other.bits_;
  other.store_.word = 0;
  other.bits_ = 0;
}

std::uint64_t* BitRun::grow_to(std::size_t bits) {
  // Sizes only grow, so a run whose new size fits inline is inline now.
  const bool spilled = !is_inline();
  if (bits > kInlineBits &&
      !(spilled && heap_words(bits) == heap_words(bits_))) {
    const std::size_t cap = heap_words(bits);
    auto* block = static_cast<std::uint64_t*>(
        ::operator new(cap * sizeof(std::uint64_t)));
    const std::size_t used = word_count();
    std::memcpy(block, words(), used * sizeof(std::uint64_t));
    std::memset(block + used, 0, (cap - used) * sizeof(std::uint64_t));
    if (spilled) ::operator delete(store_.heap);
    store_.heap = block;
  }
  bits_ = bits;
  return is_inline() ? &store_.word : store_.heap;
}

void BitRun::put(std::uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  assert(width == 64 || value < (1ULL << width));
  const std::size_t bit = bits_;
  or_bits(grow_to(bit + width), bit, value, width);
}

void BitRun::append_packed(const std::uint64_t* src, std::size_t nbits) {
  std::size_t dst = bits_;
  std::uint64_t* w = grow_to(dst + nbits);
  for (std::size_t k = 0; nbits > 0; ++k) {
    const unsigned take = nbits >= 64 ? 64u : static_cast<unsigned>(nbits);
    const std::uint64_t v = take < 64 ? src[k] & ((1ULL << take) - 1) : src[k];
    or_bits(w, dst, v, take);
    dst += take;
    nbits -= take;
  }
}

}  // namespace nc
