#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/stream.hpp"
#include "test_helpers.hpp"

// Boundary tests of the packed storage. A BitRun keeps its first 64 bits
// inside the object and spills into one heap block past that; a
// SymbolBuffer is a payload BitRun plus a BitRun of one width byte per
// symbol, so its widths spill at the ninth symbol. Every test checks
// contents against a plain (value, width) list, so a spill, reallocation,
// copy or move that loses or shifts a bit shows as a wrong symbol.

namespace nc {
namespace {

using nc::testing::deliver_symbol;

struct Sym {
  std::uint64_t value;
  unsigned width;
};

/// True while the run's words live inside the object itself.
template <typename T>
bool stored_inline(const T& owner, const BitRun& run) {
  const auto* lo = reinterpret_cast<const char*>(&owner);
  const auto* p = reinterpret_cast<const char*>(run.words());
  return p >= lo && p < lo + sizeof(T);
}
bool stored_inline(const SymbolBuffer& b) { return stored_inline(b, b.bits()); }
bool stored_inline(const BitRun& r) { return stored_inline(r, r); }

void put_all(SymbolBuffer& b, const std::vector<Sym>& syms) {
  for (const Sym& s : syms) b.put(s.value, s.width);
}

std::size_t total_bits(const std::vector<Sym>& syms) {
  std::size_t bits = 0;
  for (const Sym& s : syms) bits += s.width;
  return bits;
}

/// Checks that `run` holds exactly the bits of `want`: every symbol through
/// read() and through copy_out, zero bits above the payload, and an
/// InStream fed the run's words pops every symbol back by its width.
void expect_bits(const BitRun& run, const std::vector<Sym>& want) {
  const std::size_t bits = total_bits(want);
  ASSERT_EQ(run.bit_size(), bits);
  ASSERT_EQ(run.word_count(), (bits + 63) / 64);
  std::vector<std::uint64_t> out(run.word_count() + 1, ~0ULL);
  run.copy_out(0, bits, out.data());
  std::size_t off = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(run.read(off, want[i].width), want[i].value) << "symbol " << i;
    off += want[i].width;
  }
  for (std::size_t w = 0; w < run.word_count(); ++w) {
    ASSERT_EQ(out[w], run.words()[w]) << "word " << w;
  }
  EXPECT_EQ(out[run.word_count()], ~0ULL);  // copy_out wrote no extra word
  // Bits above the payload in the last word stay zero (writers OR into it).
  if (bits % 64 != 0) {
    EXPECT_EQ(run.words()[bits / 64] >> (bits % 64), 0u);
  }
  InStream in;
  in.deliver(run.words(), run.bit_size());
  for (const Sym& s : want) {
    ASSERT_GT(in.available(), 0u);
    ASSERT_EQ(in.pop(s.width), s.value);
  }
  EXPECT_EQ(in.available(), 0u);
}

/// expect_bits on the payload, plus the sender-side symbol widths.
void expect_holds(const SymbolBuffer& b, const std::vector<Sym>& want) {
  ASSERT_EQ(b.size(), want.size());
  ASSERT_EQ(b.bit_size(), total_bits(want));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(b.width_at(i), want[i].width) << "symbol " << i;
  }
  expect_bits(b.bits(), want);
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
  EXPECT_EQ(b.bits().word_count(), 0u);
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
  // The ninth width byte spills the width run; the 9-bit payload stays
  // inline: the symbol count never moves the payload words.
  SymbolBuffer b;
  std::vector<Sym> syms;
  for (unsigned i = 0; i < 8; ++i) syms.push_back({i & 1u, 1});
  put_all(b, syms);
  EXPECT_TRUE(stored_inline(b));
  b.put_bit(true);
  syms.push_back({1, 1});
  EXPECT_TRUE(stored_inline(b));
  expect_holds(b, syms);
  for (unsigned i = 0; i < 40; ++i) {
    b.put(i, 6);
    syms.push_back({i, 6});
  }
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
/// `dst` the way a message travels: copy_out of the sender's bit range into
/// aligned words (the staged row), then append_packed at the receiver's
/// unaligned end.
void append_range(BitRun& dst, const SymbolBuffer& src,
                  const std::vector<Sym>& syms, std::size_t from,
                  std::size_t to) {
  std::size_t bit = 0;
  for (std::size_t i = 0; i < from; ++i) bit += syms[i].width;
  std::size_t nbits = 0;
  for (std::size_t i = from; i < to; ++i) nbits += syms[i].width;
  std::vector<std::uint64_t> row((nbits + 63) / 64);
  src.bits().copy_out(bit, nbits, row.data());
  dst.append_packed(row.data(), nbits);
}

TEST(SymbolBuffer, AppendPackedIntoAnInlineBuffer) {
  const std::vector<Sym> syms = {{5, 3}, {1, 1}, {0x3ff, 10}, {7, 4}};
  SymbolBuffer src;
  put_all(src, syms);
  ASSERT_TRUE(stored_inline(src));  // also appends *from* an inline source
  BitRun dst;
  dst.put(2, 2);
  append_range(dst, src, syms, 1, 4);
  EXPECT_TRUE(stored_inline(dst));
  expect_bits(dst, {{2, 2}, {1, 1}, {0x3ff, 10}, {7, 4}});
}

TEST(SymbolBuffer, AppendPackedAcrossTheSpill) {
  std::mt19937_64 rng(11);
  const std::vector<Sym> syms = random_syms(rng, 40, 20);
  SymbolBuffer src;
  put_all(src, syms);
  ASSERT_FALSE(stored_inline(src));
  // Across the bit boundary: 60 inline bits, then a run that ends past 64.
  BitRun by_bits;
  by_bits.put(0x0fedcba987654321ULL, 60);
  append_range(by_bits, src, syms, 3, 9);
  std::vector<Sym> want = {{0x0fedcba987654321ULL, 60}};
  want.insert(want.end(), syms.begin() + 3, syms.begin() + 9);
  EXPECT_FALSE(stored_inline(by_bits));
  expect_bits(by_bits, want);
  // At a small unaligned offset: 6 one-bit symbols, then 5 more symbols.
  BitRun by_offset;
  want.clear();
  for (unsigned i = 0; i < 6; ++i) {
    by_offset.put(1, 1);
    want.push_back({1, 1});
  }
  append_range(by_offset, src, syms, 0, 5);
  want.insert(want.end(), syms.begin(), syms.begin() + 5);
  expect_bits(by_offset, want);
  // A spilled destination that reallocates mid-run.
  BitRun big;
  want.clear();
  for (int round = 0; round < 20; ++round) {
    append_range(big, src, syms, 1, 37);
    want.insert(want.end(), syms.begin() + 1, syms.begin() + 37);
  }
  expect_bits(big, want);
}

TEST(SymbolBuffer, AppendPackedMatchesPutForEverySplit) {
  std::mt19937_64 rng(23);
  const std::vector<Sym> syms = random_syms(rng, 24, 64);
  SymbolBuffer src;
  put_all(src, syms);
  for (std::size_t k = 0; k <= syms.size(); ++k) {
    SymbolBuffer b;
    put_all(b, std::vector<Sym>(syms.begin(), syms.begin() + k));
    BitRun run = b.bits();
    if (k < syms.size()) append_range(run, src, syms, k, syms.size());
    expect_bits(run, syms);
  }
  // Runs of exactly 0, 64, 65, 128 and 129 bits — the inline word, the
  // spill, the two-word heap block and its reallocation — each built as a
  // put prefix of every offset class plus one append of the rest.
  std::vector<Sym> bits;
  for (unsigned i = 0; i < 129; ++i) bits.push_back({rng() & 1u, 1});
  SymbolBuffer all;
  put_all(all, bits);
  for (const std::size_t total : {0u, 64u, 65u, 128u, 129u}) {
    const std::vector<Sym> want(bits.begin(), bits.begin() + total);
    for (const std::size_t prefix : {0u, 1u, 7u, 63u, 64u, 65u, 100u, 128u}) {
      if (prefix > total) continue;
      BitRun run;
      for (std::size_t i = 0; i < prefix; ++i) run.put(bits[i].value, 1);
      append_range(run, all, bits, prefix, total);
      EXPECT_EQ(stored_inline(run), total <= 64) << total << "/" << prefix;
      expect_bits(run, want);
    }
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
      EXPECT_NE(copy.bits().words(), orig.bits().words());
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

    const std::uint64_t* heap = orig.bits().words();
    SymbolBuffer moved(std::move(orig));
    expect_holds(moved, *syms);
    if (!was_inline) {
      EXPECT_EQ(moved.bits().words(), heap);  // block stolen
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
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<BitRun>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<BitRun>);
}

TEST(InStream, VectorRelocationKeepsMixedStreams) {
  // Streams of every size class in one growing vector — inline (<= 64
  // bits), just past the inline word, two words, and large — relocated
  // through many reallocations and front inserts, then drained.
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
    for (const Sym& x : syms) deliver_symbol(s, x.value, x.width);
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
    ASSERT_EQ(streams[i].pop(contents[i][0].width), contents[i][0].value);
    consumed[i] = 1;
  }
  streams.shrink_to_fit();
  streams.reserve(streams.capacity() * 4);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    InStream& s = streams[i];
    const std::size_t read = consumed[i] != 0 ? contents[i][0].width : 0;
    ASSERT_EQ(s.available(), total_bits(contents[i]) - read) << "stream " << i;
    for (std::size_t k = consumed[i]; k < contents[i].size(); ++k) {
      ASSERT_EQ(s.pop(contents[i][k].width), contents[i][k].value)
          << "stream " << i << " @" << k;
    }
    EXPECT_EQ(s.available(), 0u);
    EXPECT_EQ(s.finished(), s.closed());
  }
}

}  // namespace
}  // namespace nc
