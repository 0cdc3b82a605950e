#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/stream.hpp"
#include "test_helpers.hpp"

// Direct unit tests of the link layer: scheduling, chunking, round-robin,
// EOS piggybacking and pruning — independent of the Network round loop.

namespace nc {
namespace {

using nc::testing::deliver_symbol;

constexpr unsigned kHeader = 16;

OutChannel attach(Link& link, const StreamKey& key) {
  OutChannel ch;
  link.add_stream(key, ch.state());
  return ch;
}

/// One scheduled message, read out of its view: widths from the sender's
/// buffer, values from its payload bits.
struct Sent {
  StreamKey key;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;  // value, width
  bool eos = false;
  std::size_t wire_bits = 0;
};

Sent read_view(const MsgView& v) {
  Sent out{v.key, {}, v.eos, v.wire_bits};
  std::size_t bit = v.bit_off;
  for (std::size_t i = 0; i < v.symbol_count; ++i) {
    const unsigned w = v.buf->width_at(v.first_symbol + i);
    out.symbols.emplace_back(v.buf->bits().read(bit, w), w);
    bit += w;
  }
  return out;
}

/// schedule_view within `budget` bits, read back before release_idle (the
/// view borrows the stream's buffer, which a prune may free).
std::optional<Sent> schedule(Link& link, std::size_t budget) {
  MsgView v;
  if (!link.schedule_view(budget, kHeader, v)) return std::nullopt;
  Sent out = read_view(v);
  link.release_idle();
  return out;
}

/// drain_views: one unbounded message per pending stream.
std::vector<Sent> drain(Link& link) {
  std::vector<Sent> out;
  link.drain_views(kHeader,
                   [&](const MsgView& v) { out.push_back(read_view(v)); });
  link.release_idle();
  return out;
}

TEST(SymbolBuffer, PacksMixedWidths) {
  SymbolBuffer buf;
  buf.put(0b101, 3);
  buf.put_bit(true);
  buf.put(0xffff, 16);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.bit_size(), 20u);
  EXPECT_EQ(buf.width_at(0), 3u);
  EXPECT_EQ(buf.bits().read(0, 3), 0b101u);
  EXPECT_EQ(buf.width_at(1), 1u);
  EXPECT_EQ(buf.bits().read(3, 1), 1u);
  EXPECT_EQ(buf.width_at(2), 16u);
  EXPECT_EQ(buf.bits().read(4, 16), 0xffffu);
}

TEST(SymbolBuffer, CursorSeesAppendsAfterConstruction) {
  InStream in;
  EXPECT_EQ(in.available(), 0u);
  deliver_symbol(in, 7, 8);
  EXPECT_EQ(in.available(), 8u);  // growth visible: pipelining depends on it
  EXPECT_EQ(in.pop(8), 7u);
  deliver_symbol(in, 5, 3);
  EXPECT_EQ(in.available(), 3u);
  EXPECT_EQ(in.pop(3), 5u);
  EXPECT_EQ(in.available(), 0u);
}

TEST(Link, NothingPendingWhenEmpty) {
  Link link;
  EXPECT_FALSE(link.has_pending());
  EXPECT_FALSE(schedule(link, 100).has_value());
}

TEST(Link, SchedulesWithinBudgetAndChunks) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  for (int i = 0; i < 10; ++i) ch.put(static_cast<std::uint64_t>(i), 8);
  ch.close();
  // Budget: header + 2 symbols and a bit of slack.
  std::vector<std::uint64_t> got;
  bool eos = false;
  while (auto d = schedule(link, kHeader + 20)) {
    EXPECT_LE(d->wire_bits, kHeader + 20u);
    for (const auto& [v, w] : d->symbols) {
      EXPECT_EQ(w, 8u);
      got.push_back(v);
    }
    eos = eos || d->eos;
  }
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], static_cast<std::uint64_t>(i));
  EXPECT_TRUE(eos);
  EXPECT_FALSE(link.has_pending());
}

TEST(Link, EosPiggybacksOnLastChunk) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(1, 4);
  ch.close();
  const auto d = schedule(link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->eos);
  EXPECT_EQ(d->symbols.size(), 1u);
  EXPECT_FALSE(schedule(link, kHeader + 64).has_value());
}

TEST(Link, EosOnlyMessageForEmptyClosedStream) {
  Link link;
  auto ch = attach(link, StreamKey{2, 7, 0});
  ch.close();  // header-only stream (e.g. kTreeFinal)
  const auto d = schedule(link, kHeader + 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->eos);
  EXPECT_TRUE(d->symbols.empty());
  EXPECT_EQ(d->wire_bits, kHeader);
}

TEST(Link, RoundRobinAlternatesStreams) {
  Link link;
  auto a = attach(link, StreamKey{1, 0, 0});
  auto b = attach(link, StreamKey{2, 0, 0});
  for (int i = 0; i < 4; ++i) {
    a.put(1, 8);
    b.put(2, 8);
  }
  a.close();
  b.close();
  // One symbol fits per message: kinds must alternate.
  std::vector<std::uint16_t> kinds;
  while (auto d = schedule(link, kHeader + 8)) {
    kinds.push_back(d->key.kind);
  }
  ASSERT_GE(kinds.size(), 8u);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NE(kinds[i], kinds[i - 1]);
}

TEST(Link, ThrowsWhenSymbolCannotFit) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(0xffffffff, 32);
  ch.close();
  EXPECT_THROW((void)schedule(link, kHeader + 8), std::runtime_error);
}

TEST(Link, ThrowsWhenBudgetBelowHeader) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put_bit(true);
  ch.close();
  EXPECT_THROW((void)schedule(link, kHeader - 1), std::runtime_error);
}

TEST(Link, DrainAllDeliversEverythingAtOnce) {
  Link link;
  auto a = attach(link, StreamKey{1, 0, 0});
  auto b = attach(link, StreamKey{2, 0, 0});
  for (int i = 0; i < 100; ++i) a.put(i % 256, 8);
  a.close();
  b.put(5, 3);
  b.close();
  const auto ds = drain(link);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].symbols.size(), 100u);
  EXPECT_TRUE(ds[0].eos);
  EXPECT_EQ(ds[1].symbols.size(), 1u);
  EXPECT_TRUE(drain(link).empty());
}

TEST(Link, AppendAfterPartialDrainContinues) {
  Link link;
  auto ch = attach(link, StreamKey{1, 0, 0});
  ch.put(1, 8);
  auto d1 = schedule(link, kHeader + 8);
  ASSERT_TRUE(d1.has_value());
  EXPECT_FALSE(d1->eos);  // stream not closed yet
  ch.put(2, 8);
  ch.close();
  auto d2 = schedule(link, kHeader + 8);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->symbols[0].first, 2u);
  EXPECT_TRUE(d2->eos);
}

TEST(Link, PruneKeepsActiveStreams) {
  Link link;
  auto done = attach(link, StreamKey{1, 0, 0});
  done.put(1, 4);
  done.close();
  auto live = attach(link, StreamKey{2, 0, 0});
  live.put(2, 4);
  EXPECT_EQ(link.stream_count(), 2u);
  (void)schedule(link, kHeader + 64);  // drains `done` + its EOS
  (void)schedule(link, kHeader + 64);  // drains `live`'s symbol
  link.prune_done();
  EXPECT_EQ(link.stream_count(), 1u);  // `done` pruned, `live` kept
  EXPECT_FALSE(link.has_pending());  // live has no pending symbols...
  live.put(3, 4);
  EXPECT_TRUE(link.has_pending());  // ...but is still attached after prune
  const auto d = schedule(link, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->key.kind, 2u);
}

TEST(StreamHeaderBits, MatchesLayout) {
  // kind(5) + tag(id bits) + version(4) + eos(1).
  EXPECT_EQ(stream_header_bits(10), 5u + 10u + 4u + 1u);
  EXPECT_EQ(stream_header_bits(1), 11u);
}

}  // namespace
}  // namespace nc
