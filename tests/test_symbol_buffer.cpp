#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/stream.hpp"

// Boundary tests of SymbolBuffer's small-buffer storage: the first 64
// payload bits and the first 8 symbol widths live inside the object, and a
// buffer that outgrows either spills into one heap block. Every test checks
// contents against a plain (value, width) list, so a spill, reallocation,
// copy or move that loses or shifts a bit shows as a wrong symbol.

namespace nc {
namespace {

struct Sym {
  std::uint64_t value;
  unsigned width;
};

/// True while the buffer's words live inside the object itself.
bool stored_inline(const SymbolBuffer& b) {
  const auto* lo = reinterpret_cast<const char*>(&b);
  const auto* p = reinterpret_cast<const char*>(b.words());
  return p >= lo && p < lo + sizeof(SymbolBuffer);
}

void put_all(SymbolBuffer& b, const std::vector<Sym>& syms) {
  for (const Sym& s : syms) b.put(s.value, s.width);
}

/// Checks sizes, every symbol through value_at/width_at and through an
/// InStream's sequential pop, and that the packed words agree with the
/// symbols.
void expect_holds(const SymbolBuffer& b, const std::vector<Sym>& want) {
  ASSERT_EQ(b.size(), want.size());
  std::size_t bits = 0;
  for (const Sym& s : want) bits += s.width;
  ASSERT_EQ(b.bit_size(), bits);
  ASSERT_EQ(b.word_count(), (bits + 63) / 64);
  std::size_t off = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(b.width_at(i), want[i].width) << "symbol " << i;
    ASSERT_EQ(b.value_at(off, want[i].width), want[i].value) << "symbol " << i;
    ASSERT_EQ(read_packed_bits(b.words(), b.word_count(), off, want[i].width),
              want[i].value)
        << "symbol " << i;
    off += want[i].width;
  }
  // Bits above the payload in the last word stay zero (writers OR into it).
  if (bits % 64 != 0) {
    EXPECT_EQ(b.words()[bits / 64] >> (bits % 64), 0u);
  }
  InStream in;
  in.deliver_packed(b.words(), b.word_count(), 0, b.bit_size(), b.widths(),
                    b.size());
  for (const Sym& s : want) {
    ASSERT_GT(in.available(), 0u);
    ASSERT_EQ(in.pop(), s.value);
  }
  EXPECT_EQ(in.available(), 0u);
}

std::uint64_t mask(unsigned width) {
  return width == 64 ? ~0ULL : (1ULL << width) - 1;
}

std::vector<Sym> random_syms(std::mt19937_64& rng, std::size_t n,
                             unsigned max_width) {
  std::vector<Sym> out;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned w = 1 + static_cast<unsigned>(rng() % max_width);
    out.push_back({rng() & mask(w), w});
  }
  return out;
}

TEST(SymbolBuffer, SmallBuffersStayInline) {
  SymbolBuffer b;
  EXPECT_TRUE(stored_inline(b));
  EXPECT_EQ(b.word_count(), 0u);
  const std::vector<Sym> syms = {{1, 1}, {0, 1}, {0x2a, 7}, {0xbeef, 16},
                                 {3, 2}, {0, 5}, {0xffff, 16}, {0xff, 16}};
  put_all(b, syms);  // exactly 8 symbols, exactly 64 bits
  EXPECT_TRUE(stored_inline(b));
  expect_holds(b, syms);
}

TEST(SymbolBuffer, SpillsAtThe65thPayloadBit) {
  SymbolBuffer b;
  std::vector<Sym> syms = {{0x0123456789abcdeULL, 60}, {0xa, 4}};
  put_all(b, syms);
  EXPECT_TRUE(stored_inline(b));
  expect_holds(b, syms);
  b.put(1, 1);
  syms.push_back({1, 1});
  EXPECT_FALSE(stored_inline(b));
  expect_holds(b, syms);
}

TEST(SymbolBuffer, SpillsAtTheNinthSymbol) {
  SymbolBuffer b;
  std::vector<Sym> syms;
  for (unsigned i = 0; i < 8; ++i) syms.push_back({i & 1u, 1});
  put_all(b, syms);
  EXPECT_TRUE(stored_inline(b));
  b.put_bit(true);
  syms.push_back({1, 1});
  EXPECT_FALSE(stored_inline(b));
  expect_holds(b, syms);
}

TEST(SymbolBuffer, SixtyFourBitSymbolStraddlesTheSpill) {
  SymbolBuffer b;
  std::vector<Sym> syms = {{0b101, 3}, {0xfedcba9876543210ULL, 64}};
  put_all(b, syms);
  EXPECT_FALSE(stored_inline(b));
  expect_holds(b, syms);
  // And a full-width symbol that ends exactly on the inline word boundary.
  SymbolBuffer exact;
  exact.put(~0ULL, 64);
  EXPECT_TRUE(stored_inline(exact));
  expect_holds(exact, {{~0ULL, 64}});
}

TEST(SymbolBuffer, GrowsThroughManyReallocations) {
  std::mt19937_64 rng(5);
  const std::vector<Sym> syms = random_syms(rng, 3000, 64);
  SymbolBuffer b;
  for (std::size_t i = 0; i < syms.size(); ++i) {
    b.put(syms[i].value, syms[i].width);
    if ((i & (i + 1)) == 0) {  // at every power-of-two size
      expect_holds(b, std::vector<Sym>(syms.begin(), syms.begin() + i + 1));
    }
  }
  expect_holds(b, syms);
}

/// Appends `syms[from, to)` of `src` (already holding all of `syms`) to
/// `dst` with append_packed.
void append_range(SymbolBuffer& dst, const SymbolBuffer& src,
                  const std::vector<Sym>& syms, std::size_t from,
                  std::size_t to) {
  std::size_t bit = 0;
  for (std::size_t i = 0; i < from; ++i) bit += syms[i].width;
  std::size_t nbits = 0;
  for (std::size_t i = from; i < to; ++i) nbits += syms[i].width;
  dst.append_packed(src.words(), src.word_count(), bit, nbits,
                    src.widths() + from, to - from);
}

TEST(SymbolBuffer, AppendPackedIntoAnInlineBuffer) {
  const std::vector<Sym> syms = {{5, 3}, {1, 1}, {0x3ff, 10}, {7, 4}};
  SymbolBuffer src;
  put_all(src, syms);
  ASSERT_TRUE(stored_inline(src));  // also appends *from* an inline source
  SymbolBuffer dst;
  dst.put(2, 2);
  append_range(dst, src, syms, 1, 4);
  EXPECT_TRUE(stored_inline(dst));
  expect_holds(dst, {{2, 2}, {1, 1}, {0x3ff, 10}, {7, 4}});
}

TEST(SymbolBuffer, AppendPackedAcrossTheSpill) {
  std::mt19937_64 rng(11);
  const std::vector<Sym> syms = random_syms(rng, 40, 20);
  SymbolBuffer src;
  put_all(src, syms);
  ASSERT_FALSE(stored_inline(src));
  // Across the bit boundary: 60 inline bits, then a run that ends past 64.
  SymbolBuffer by_bits;
  by_bits.put(0x0fedcba987654321ULL, 60);
  append_range(by_bits, src, syms, 3, 9);
  std::vector<Sym> want = {{0x0fedcba987654321ULL, 60}};
  want.insert(want.end(), syms.begin() + 3, syms.begin() + 9);
  EXPECT_FALSE(stored_inline(by_bits));
  expect_holds(by_bits, want);
  // Across the symbol boundary: 6 one-bit symbols, then 5 more symbols.
  SymbolBuffer by_count;
  want.clear();
  for (unsigned i = 0; i < 6; ++i) {
    by_count.put_bit(true);
    want.push_back({1, 1});
  }
  append_range(by_count, src, syms, 0, 5);
  want.insert(want.end(), syms.begin(), syms.begin() + 5);
  EXPECT_FALSE(stored_inline(by_count));
  expect_holds(by_count, want);
  // A spilled destination that reallocates mid-run.
  SymbolBuffer big;
  want.clear();
  for (int round = 0; round < 20; ++round) {
    append_range(big, src, syms, 1, 37);
    want.insert(want.end(), syms.begin() + 1, syms.begin() + 37);
  }
  expect_holds(big, want);
}

TEST(SymbolBuffer, AppendPackedMatchesPutForEverySplit) {
  std::mt19937_64 rng(23);
  const std::vector<Sym> syms = random_syms(rng, 24, 64);
  SymbolBuffer src;
  put_all(src, syms);
  for (std::size_t k = 0; k <= syms.size(); ++k) {
    SymbolBuffer b;
    put_all(b, std::vector<Sym>(syms.begin(), syms.begin() + k));
    if (k < syms.size()) append_range(b, src, syms, k, syms.size());
    expect_holds(b, syms);
  }
}

TEST(SymbolBuffer, CopyAndMoveInlineAndSpilled) {
  std::mt19937_64 rng(3);
  const std::vector<Sym> small = random_syms(rng, 4, 8);
  const std::vector<Sym> large = random_syms(rng, 50, 40);
  for (const auto* syms : {&small, &large}) {
    SymbolBuffer orig;
    put_all(orig, *syms);
    const bool was_inline = stored_inline(orig);
    EXPECT_EQ(was_inline, syms == &small);

    SymbolBuffer copy(orig);
    expect_holds(copy, *syms);
    expect_holds(orig, *syms);
    if (!was_inline) {
      EXPECT_NE(copy.words(), orig.words());
    }

    SymbolBuffer assigned;
    assigned.put(1, 1);
    assigned = orig;
    expect_holds(assigned, *syms);
    // Copy-assigning over a spilled buffer frees its block (ASan checks).
    SymbolBuffer over;
    put_all(over, large);
    over = orig;
    expect_holds(over, *syms);

    const std::uint64_t* heap = orig.words();
    SymbolBuffer moved(std::move(orig));
    expect_holds(moved, *syms);
    if (!was_inline) {
      EXPECT_EQ(moved.words(), heap);  // block stolen
    }
    EXPECT_EQ(orig.size(), 0u);
    EXPECT_EQ(orig.bit_size(), 0u);
    EXPECT_TRUE(stored_inline(orig));
    orig.put(3, 2);  // a moved-from buffer is empty and usable
    expect_holds(orig, {{3, 2}});

    SymbolBuffer target;
    put_all(target, large);
    target = std::move(moved);
    expect_holds(target, *syms);
    EXPECT_EQ(moved.size(), 0u);
  }
}

TEST(SymbolBuffer, SelfAssignmentKeepsContents) {
  std::mt19937_64 rng(9);
  for (const std::size_t n : {std::size_t{3}, std::size_t{30}}) {
    const std::vector<Sym> syms = random_syms(rng, n, 16);
    SymbolBuffer b;
    put_all(b, syms);
    SymbolBuffer& alias = b;
    b = alias;
    expect_holds(b, syms);
    b = std::move(alias);
    expect_holds(b, syms);
  }
}

TEST(SymbolBuffer, MovesAreNoexcept) {
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<SymbolBuffer>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<SymbolBuffer>);
}

TEST(InStream, VectorRelocationKeepsMixedStreams) {
  // Streams of every size class in one growing vector — inline (<= 8
  // symbols, <= 64 bits), spilled by count, spilled by bits, and large —
  // relocated through many reallocations and front inserts, then drained.
  std::mt19937_64 rng(41);
  std::vector<std::vector<Sym>> contents;
  std::vector<InStream> streams;
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = (i % 4 == 0) ? 1 + rng() % 8
                          : (i % 4 == 1) ? 9 + rng() % 4
                          : (i % 4 == 2) ? 2 + rng() % 3
                                         : 20 + rng() % 200;
    const unsigned max_width = (i % 4 == 2) ? 64 : 8;
    std::vector<Sym> syms = random_syms(rng, n, max_width);
    InStream s;
    for (const Sym& x : syms) s.deliver(x.value, x.width);
    if (i % 7 == 0) {
      s.deliver_eos();
      streams.insert(streams.begin(), std::move(s));
      contents.insert(contents.begin(), std::move(syms));
    } else {
      streams.push_back(std::move(s));
      contents.push_back(std::move(syms));
    }
  }
  // Partially consume some streams, then force more relocations.
  std::vector<std::size_t> consumed(streams.size(), 0);
  for (std::size_t i = 0; i < streams.size(); i += 3) {
    ASSERT_EQ(streams[i].pop(), contents[i][0].value);
    consumed[i] = 1;
  }
  streams.shrink_to_fit();
  streams.reserve(streams.capacity() * 4);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    InStream& s = streams[i];
    ASSERT_EQ(s.delivered(), contents[i].size()) << "stream " << i;
    ASSERT_EQ(s.available(), contents[i].size() - consumed[i]);
    for (std::size_t k = consumed[i]; k < contents[i].size(); ++k) {
      ASSERT_EQ(s.pop(), contents[i][k].value) << "stream " << i << " @" << k;
    }
    EXPECT_EQ(s.available(), 0u);
    EXPECT_EQ(s.finished(), s.closed());
  }
}

}  // namespace
}  // namespace nc
