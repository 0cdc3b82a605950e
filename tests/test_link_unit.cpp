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

// schedule_matches: the stage phase's broadcast fast path. A sibling link
// (one that shares the OutStreamState) whose cursor coincides with the head
// link's view advances as if it had run schedule_view itself.

/// The scheduling-relevant fields of a view (everything but `buf`).
void expect_same_view(const MsgView& a, const MsgView& b) {
  EXPECT_EQ(a.key.kind, b.key.kind);
  EXPECT_EQ(a.key.tag, b.key.tag);
  EXPECT_EQ(a.key.version, b.key.version);
  EXPECT_EQ(a.first_symbol, b.first_symbol);
  EXPECT_EQ(a.symbol_count, b.symbol_count);
  EXPECT_EQ(a.bit_off, b.bit_off);
  EXPECT_EQ(a.bit_len, b.bit_len);
  EXPECT_EQ(a.eos, b.eos);
  EXPECT_EQ(a.wire_bits, b.wire_bits);
}

TEST(Link, ScheduleMatchesAdvancesLockstepSiblingLikeScheduleView) {
  // Three links share two streams: `head` schedules, `sibling` takes the
  // fast path, `twin` runs schedule_view. Round-robin over two streams with
  // chunking and EOS: every round the sibling must match, and the twin's
  // view must equal the head's — so the sibling advanced exactly as
  // schedule_view would have.
  Link head, sibling, twin;
  OutChannel a, b;
  const StreamKey ka{3, 9, 1}, kb{4, 9, 1};
  for (Link* l : {&head, &sibling, &twin}) {
    l->add_stream(ka, a.state());
    l->add_stream(kb, b.state());
  }
  for (unsigned i = 0; i < 7; ++i) a.put(i + 1, 12);
  for (unsigned i = 0; i < 3; ++i) b.put(0x100 + i, 20);
  a.close();
  b.close();
  const std::size_t budget = kHeader + 40;
  int rounds = 0;
  MsgView hv, tv;
  while (head.schedule_view(budget, kHeader, hv)) {
    ++rounds;
    ASSERT_TRUE(sibling.schedule_matches(hv)) << "round " << rounds;
    ASSERT_TRUE(twin.schedule_view(budget, kHeader, tv)) << "round " << rounds;
    expect_same_view(hv, tv);
    EXPECT_EQ(sibling.has_pending(), twin.has_pending());
    head.release_idle();
    sibling.release_idle();
    twin.release_idle();
  }
  EXPECT_GT(rounds, 4);  // both streams chunked, alternating
  EXPECT_FALSE(sibling.has_pending());
  EXPECT_FALSE(twin.has_pending());
  EXPECT_EQ(sibling.stream_count(), 0u);  // both EOSes delivered, pruned
}

TEST(Link, ScheduleMatchesRejectsDivergedCursorWithoutAdvancing) {
  // The sibling lags one message behind the head: the head's second view
  // starts past the sibling's cursor, so it must not match — and the
  // sibling must still schedule the head's first message next.
  Link head, sibling;
  OutChannel ch;
  const StreamKey key{2, 5, 0};
  head.add_stream(key, ch.state());
  sibling.add_stream(key, ch.state());
  for (unsigned i = 0; i < 4; ++i) ch.put(i + 1, 8);
  MsgView first, second, v;
  ASSERT_TRUE(head.schedule_view(kHeader + 16, kHeader, first));
  ASSERT_TRUE(head.schedule_view(kHeader + 16, kHeader, second));
  EXPECT_FALSE(sibling.schedule_matches(second));
  ASSERT_TRUE(sibling.schedule_view(kHeader + 16, kHeader, v));
  expect_same_view(v, first);
}

TEST(Link, ScheduleMatchesRejectsOtherBufferWithoutAdvancing) {
  // Same key, same content, same cursor — but a different OutStreamState:
  // the fast path only trusts a shared buffer.
  Link head, other;
  OutChannel mine = attach(head, StreamKey{1, 2, 0});
  OutChannel theirs = attach(other, StreamKey{1, 2, 0});
  for (OutChannel* ch : {&mine, &theirs}) {
    ch->put(0xab, 8);
    ch->put(0xcd, 8);
    ch->close();
  }
  MsgView hv;
  ASSERT_TRUE(head.schedule_view(kHeader + 64, kHeader, hv));
  EXPECT_FALSE(other.schedule_matches(hv));
  EXPECT_TRUE(other.has_pending());
  const auto d = schedule(other, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->symbols, (read_view(hv).symbols));
  EXPECT_TRUE(d->eos);
}

TEST(Link, ScheduleMatchesRejectsAfterDeliveredEosWithoutAdvancing) {
  // The sibling already matched the head's EOS message. Offering that view
  // again must fail — the shared stream is finished — and must leave the
  // sibling's other, still pending stream untouched.
  Link head, sibling;
  OutChannel shared;
  head.add_stream(StreamKey{1, 3, 0}, shared.state());
  sibling.add_stream(StreamKey{1, 3, 0}, shared.state());
  OutChannel own = attach(sibling, StreamKey{2, 3, 0});
  shared.put(0x5, 4);
  shared.close();
  own.put(0x77, 8);
  MsgView eos_view;
  ASSERT_TRUE(head.schedule_view(kHeader + 64, kHeader, eos_view));
  ASSERT_TRUE(eos_view.eos);
  ASSERT_TRUE(sibling.schedule_matches(eos_view));
  EXPECT_FALSE(sibling.schedule_matches(eos_view));
  const auto d = schedule(sibling, kHeader + 64);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->key.kind, 2u);
  ASSERT_EQ(d->symbols.size(), 1u);
  EXPECT_EQ(d->symbols[0].first, 0x77u);
  EXPECT_FALSE(sibling.has_pending());
}

TEST(StreamHeaderBits, MatchesLayout) {
  // kind(5) + tag(id bits) + version(4) + eos(1).
  EXPECT_EQ(stream_header_bits(10), 5u + 10u + 4u + 1u);
  EXPECT_EQ(stream_header_bits(1), 11u);
}

}  // namespace
}  // namespace nc
