#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/link.hpp"
#include "runtime/message.hpp"
#include "runtime/msgblock.hpp"
#include "runtime/reliability.hpp"
#include "runtime/stream.hpp"

// Round-trip tests of the staging lanes: a message scheduled as a
// zero-copy MsgView, pushed into a MsgBlock (inline or spilled encoding),
// decoded with record() and replayed into an InStream must reproduce the
// exact symbol sequence, EOS flag and wire accounting of the direct path.
// Rows carry payload bits only; the replay pops each symbol by the width
// the sender used, as a protocol pops by its message format.

namespace nc {
namespace {

constexpr unsigned kHeader = 16;

// One producer symbol sequence scheduled through a real Link into a view.
struct Scheduled {
  Link link;
  MsgView view;
  bool ok = false;
};

void schedule(Scheduled& s, const StreamKey& key,
              const std::vector<std::pair<std::uint64_t, unsigned>>& symbols,
              bool close, std::size_t budget_bits) {
  OutChannel ch;
  s.link.add_stream(key, ch.state());
  for (const auto& [v, w] : symbols) ch.put(v, w);
  if (close) ch.close();
  s.ok = s.link.schedule_view(budget_bits, kHeader, s.view);
}

using Symbols = std::vector<std::pair<std::uint64_t, unsigned>>;

// Replays a decoded record into an InStream exactly as Network::deliver_row
// does for each copy, then pops it back symbol by symbol with the widths of
// `format` and checks that nothing is left over.
Symbols replay(const MsgBlock::Rec& r, const Symbols& format) {
  InStream in;
  in.deliver(r.pay_words, r.pay_bits);
  if (r.eos) in.deliver_eos();
  Symbols out;
  for (const auto& [value, width] : format) {
    (void)value;
    if (in.available() < width) {
      ADD_FAILURE() << "row holds fewer bits than its format";
      break;
    }
    out.emplace_back(in.pop(width), width);
  }
  EXPECT_EQ(in.available(), 0u);
  EXPECT_EQ(in.closed(), r.eos);
  return out;
}

bool spilled(const MsgBlock::Rec& r) {
  return r.pay_bits > MsgBlock::kInlineBits;
}

TEST(MsgBlock, InlineSingleSymbolRoundTripsEveryKindAndVersion) {
  MsgBlock block;  // heap mode
  std::vector<StreamKey> keys;
  for (std::uint16_t kind = 0; kind < kMaxMsgKinds; ++kind) {
    for (std::uint16_t version = 0; version < kMaxStreamVersions;
         version += 5) {
      keys.push_back(StreamKey{kind, NodeId{kind * 100u + version}, version});
    }
  }
  std::vector<Scheduled> scheduled(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    schedule(scheduled[i], keys[i], {{i * 7 + 1, 20}}, /*close=*/true,
             kHeader + 64);
    ASSERT_TRUE(scheduled[i].ok);
    block.push(scheduled[i].view, i, 0);
  }
  ASSERT_EQ(block.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_EQ(r.edge, i);
    EXPECT_EQ(r.copies, 1u);
    EXPECT_EQ(r.key.kind, keys[i].kind);
    EXPECT_EQ(r.key.tag, keys[i].tag);
    EXPECT_EQ(r.key.version, keys[i].version);
    EXPECT_TRUE(r.eos);  // budget held the whole stream, EOS piggybacked
    EXPECT_FALSE(spilled(r));
    EXPECT_EQ(r.pay_bits, 20u);
    EXPECT_EQ(r.wire_bits, kHeader + 20u);
    const Symbols want{{i * 7 + 1, 20u}};
    EXPECT_EQ(replay(r, want), want);
  }
}

TEST(MsgBlock, InlineTwoSymbolsIncludingMaxWidth) {
  MsgBlock block;
  Scheduled s;
  const std::uint64_t big = ~std::uint64_t{0};
  schedule(s, StreamKey{3, 42, 1}, {{big, 64}, {0x1234, 16}}, /*close=*/false,
           kHeader + 64 + 16);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 9, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_FALSE(spilled(r));
  EXPECT_FALSE(r.eos);  // stream not closed
  EXPECT_EQ(r.wire_bits, kHeader + 80u);
  const Symbols want{{big, 64u}, {0x1234u, 16u}};
  EXPECT_EQ(replay(r, want), want);
}

TEST(MsgBlock, SpilledManySymbolsRoundTrip) {
  MsgBlock block;
  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  std::size_t payload_bits = 0;
  for (unsigned i = 0; i < 50; ++i) {
    const unsigned w = 3 + (i * 7) % 62;  // mixed widths, crosses words
    symbols.emplace_back((std::uint64_t{i} * 0x9e3779b97f4a7c15u) >> (64 - w),
                         w);
    payload_bits += w;
  }
  schedule(s, StreamKey{7, 1000, 3}, symbols, /*close=*/true,
           kHeader + payload_bits);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 5, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(spilled(r));
  EXPECT_TRUE(r.eos);
  EXPECT_EQ(r.pay_bits, payload_bits);
  const auto got = replay(r, symbols);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(got[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, SpilledMaxWidthSymbolsRoundTrip) {
  // All-64-bit payload: the widest legal symbols, word boundaries everywhere.
  MsgBlock block;
  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 8; ++i) {
    symbols.emplace_back(0x0102030405060708u * (i + 1), 64);
  }
  schedule(s, StreamKey{1, 2, 0}, symbols, /*close=*/true, kHeader + 8 * 64);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 1, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(spilled(r));
  EXPECT_EQ(r.pay_bits, 8u * 64);
  const auto got = replay(r, symbols);
  for (std::size_t i = 0; i < symbols.size(); ++i) EXPECT_EQ(got[i], symbols[i]);
}

TEST(MsgBlock, PureEosMessageCarriesNoPayload) {
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{2, 8, 0}, {}, /*close=*/true, kHeader);
  ASSERT_TRUE(s.ok);  // empty-but-closed stream schedules a pure-EOS message
  block.push(s.view, 3, 0);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(r.eos);
  EXPECT_EQ(r.pay_bits, 0u);
  EXPECT_EQ(r.wire_bits, kHeader);
  InStream in;
  in.deliver(r.pay_words, r.pay_bits);
  if (r.eos) in.deliver_eos();
  EXPECT_TRUE(in.finished());
}

TEST(MsgBlock, LocalDrainViewsStageUnbounded) {
  // LOCAL mode drains whole streams through drain_views; a long stream must
  // spill and round-trip through the lane in one message.
  Link link;
  OutChannel ch;
  link.add_stream(StreamKey{4, 77, 0}, ch.state());
  Symbols sent;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ch.put(i * 13 + 5, 32);
    sent.emplace_back(i * 13 + 5, 32);
  }
  ch.close();
  MsgBlock block;
  const std::size_t produced =
      link.drain_views(kHeader, [&](const MsgView& v) {
        block.push(v, 0, 0);
      });
  ASSERT_EQ(produced, 1u);
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_TRUE(spilled(r));
  EXPECT_EQ(r.pay_bits, 200u * 32);
  EXPECT_EQ(replay(r, sent), sent);
}

TEST(MsgBlock, AppendFromCopiesInlineAndSpilledRows) {
  // The delayed-bucket hand-off: rows staged in a lane are copied into a
  // bucket that outlives the round.
  MsgBlock lane;

  Scheduled small;
  schedule(small, StreamKey{6, 11, 2}, {{0xabcd, 16}}, /*close=*/false,
           kHeader + 16);
  ASSERT_TRUE(small.ok);
  lane.push(small.view, 10, 7);

  Scheduled big;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 20; ++i) symbols.emplace_back(i + 1, 17);
  schedule(big, StreamKey{8, 12, 0}, symbols, /*close=*/true,
           kHeader + 20 * 17);
  ASSERT_TRUE(big.ok);
  lane.push(big.view, 11, 9);

  MsgBlock bucket;
  bucket.append_from(lane, 0, kHeader);
  bucket.append_from(lane, 1, kHeader);

  // Simulate the next round: the lane is cleared. The bucket's copies must
  // be unaffected.
  lane.clear();
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(lane.message_count(), 0u);

  const MsgBlock::Rec r0 = bucket.record(0, kHeader);
  EXPECT_EQ(r0.edge, 10u);
  EXPECT_EQ(r0.copies, 1u);
  EXPECT_EQ(r0.deliver_round, 7u);
  EXPECT_FALSE(spilled(r0));
  const Symbols want0{{0xabcdu, 16u}};
  EXPECT_EQ(replay(r0, want0), want0);

  const MsgBlock::Rec r1 = bucket.record(1, kHeader);
  EXPECT_EQ(r1.edge, 11u);
  EXPECT_EQ(r1.deliver_round, 9u);
  EXPECT_TRUE(spilled(r1));
  EXPECT_TRUE(r1.eos);
  const auto got1 = replay(r1, symbols);
  ASSERT_EQ(got1.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got1[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, ClearedLaneKeepsCapacityOverIdenticalRounds) {
  // A lane is cleared at the top of every stage phase. clear() must keep the
  // row and payload capacity, so once the first round has grown the arrays,
  // identical rounds stage into the same memory and allocate nothing.
  MsgBlock lane;
  EXPECT_EQ(lane.capacity_bytes(), 0u);
  const auto stage_round = [&](int round) {
    lane.clear();
    for (int m = 0; m < 32; ++m) {
      Scheduled s;
      // Alternate inline (24-bit) and spilled (5 × 40-bit) payloads so both
      // arrays grow.
      Symbols symbols{{static_cast<std::uint64_t>(m * round), 24}};
      if (m % 2 == 1) symbols.assign(5, {static_cast<std::uint64_t>(m), 40});
      schedule(s, StreamKey{1, NodeId(m), 0}, symbols, true, kHeader + 200);
      ASSERT_TRUE(s.ok);
      lane.push(s.view, std::size_t(m), 0);
    }
    ASSERT_EQ(lane.size(), 32u);
  };
  stage_round(0);
  const std::size_t cap = lane.capacity_bytes();
  EXPECT_GT(cap, 0u);
  for (int round = 1; round < 8; ++round) {
    stage_round(round);
    EXPECT_EQ(lane.capacity_bytes(), cap) << "round " << round;
  }
  lane.clear();
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(lane.capacity_bytes(), cap);
}

// One staged copy as the deliver phase expands it: (edge, deliver round).
using Copy = std::pair<std::size_t, std::uint64_t>;

// Expands every row of `block` into its copies, in staged order.
std::vector<Copy> expand(const MsgBlock& block) {
  std::vector<Copy> out;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    for (std::uint32_t j = 0; j < r.copies; ++j) {
      out.emplace_back(r.edge + j, r.deliver_round);
    }
  }
  return out;
}

TEST(MsgBlock, BroadcastRowExtendsOverConsecutiveEdges) {
  // On-time copies on consecutive edges extend one row: one payload, one
  // edge range, three physical messages.
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{3, 21, 1}, {{0xbeef, 16}, {0x7, 3}}, /*close=*/true,
           kHeader + 19);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 40, 0);
  block.add_copy(41, 0);
  block.add_copy(42, 0);

  ASSERT_EQ(block.size(), 1u);            // one row...
  EXPECT_EQ(block.message_count(), 3u);   // ...three physical messages
  const MsgBlock::Rec r = block.record(0, kHeader);
  EXPECT_EQ(r.edge, 40u);
  EXPECT_EQ(r.copies, 3u);
  EXPECT_EQ(r.deliver_round, 0u);
  EXPECT_FALSE(spilled(r));
  EXPECT_TRUE(r.eos);
  // The shared payload decodes once and serves every copy.
  const Symbols want{{0xbeefu, 16u}, {0x7u, 3u}};
  EXPECT_EQ(replay(r, want), want);
}

TEST(MsgBlock, BroadcastSpilledMaxWidthFansOutToEveryDegree) {
  // Spilled all-64-bit payload (the widest legal symbols) fanned out to
  // 1..deg consecutive edges: always one row whose range grows with the
  // degree, so a single copy costs exactly a unicast.
  for (std::uint32_t deg = 1; deg <= 5; ++deg) {
    MsgBlock block;
    Scheduled s;
    std::vector<std::pair<std::uint64_t, unsigned>> symbols;
    for (unsigned i = 0; i < 6; ++i) {
      symbols.emplace_back(0x1111111111111111u * (i + 1), 64);
    }
    schedule(s, StreamKey{7, 900, 2}, symbols, /*close=*/true,
             kHeader + 6 * 64);
    ASSERT_TRUE(s.ok);
    block.push(s.view, 100, 0);
    for (std::uint32_t j = 1; j < deg; ++j) block.add_copy(100 + j, 0);
    ASSERT_EQ(block.size(), 1u) << "deg " << deg;
    EXPECT_EQ(block.message_count(), deg);
    const MsgBlock::Rec r = block.record(0, kHeader);
    EXPECT_TRUE(spilled(r));
    EXPECT_EQ(r.edge, 100u);
    EXPECT_EQ(r.copies, deg);
    const auto got = replay(r, symbols);
    ASSERT_EQ(got.size(), symbols.size());
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      EXPECT_EQ(got[i], symbols[i]) << "deg " << deg << " symbol " << i;
    }
  }
}

TEST(MsgBlock, BroadcastReceiversSplitAcrossDstShardLanes) {
  // The stage phase groups per (src, dst-shard) lane: a broadcast whose
  // receivers live on two destination shards stages one row per lane, each
  // covering only its own shard's block of the sender's edges. Two lanes,
  // same scheduled view.
  MsgBlock lane0, lane1;

  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 12; ++i) symbols.emplace_back(i * 3 + 1, 33);
  schedule(s, StreamKey{5, 77, 0}, symbols, /*close=*/false,
           kHeader + 12 * 33);
  ASSERT_TRUE(s.ok);

  // Edges 10..12 target shard 0; edge 13 targets shard 1.
  lane0.push(s.view, 10, 0);
  lane0.add_copy(11, 0);
  lane0.add_copy(12, 0);
  lane1.push(s.view, 13, 0);

  const MsgBlock::Rec r0 = lane0.record(0, kHeader);
  const MsgBlock::Rec r1 = lane1.record(0, kHeader);
  EXPECT_EQ(r0.edge, 10u);
  EXPECT_EQ(r0.copies, 3u);
  EXPECT_EQ(r1.edge, 13u);
  EXPECT_EQ(r1.copies, 1u);  // lone receiver on its shard: a unicast row
  // Both lanes decode the identical payload and identical wire charge.
  EXPECT_EQ(r0.wire_bits, r1.wire_bits);
  const auto got0 = replay(r0, symbols);
  const auto got1 = replay(r1, symbols);
  EXPECT_EQ(got0, got1);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(got0[i], symbols[i]) << "symbol " << i;
  }
}

TEST(MsgBlock, BroadcastRowSplitsAtDroppedCopyKeepingOrder) {
  // Edge 22's copy was dropped: the gap ends the row, and the next copy
  // opens a new row. Expansion still yields the staged order.
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{4, 5, 0}, {{0x31, 8}}, /*close=*/false, kHeader + 8);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 20, 0);
  block.add_copy(21, 0);
  block.add_copy(23, 0);  // 22 dropped
  block.add_copy(24, 0);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block.message_count(), 4u);
  EXPECT_EQ(block.record(0, kHeader).copies, 2u);
  EXPECT_EQ(block.record(1, kHeader).edge, 23u);
  EXPECT_EQ(block.record(1, kHeader).copies, 2u);
  const std::vector<Copy> want{{20, 0}, {21, 0}, {23, 0}, {24, 0}};
  EXPECT_EQ(expand(block), want);
  const Symbols want_symbols{{0x31u, 8u}};
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(replay(block.record(i, kHeader), want_symbols), want_symbols);
  }
}

TEST(MsgBlock, BroadcastRowSplitsAtDelayedCopyKeepingOrder) {
  // A delayed copy becomes its own 1-copy row carrying its deliver round;
  // the on-time copies after it open a fresh row. A row that starts
  // delayed is never extended, even by a copy due the same round.
  MsgBlock block;
  Scheduled s;
  schedule(s, StreamKey{9, 6, 3}, {{0x2a, 7}, {0x15, 6}}, /*close=*/true,
           kHeader + 13);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 20, 0);
  block.add_copy(21, 0);
  block.add_copy(22, 9);  // delayed mid-range
  block.add_copy(23, 0);
  block.add_copy(24, 0);
  block.add_copy(25, 5);
  block.add_copy(26, 5);
  const std::vector<Copy> want{{20, 0}, {21, 0}, {22, 9}, {23, 0},
                               {24, 0}, {25, 5}, {26, 5}};
  EXPECT_EQ(expand(block), want);
  ASSERT_EQ(block.size(), 5u);
  EXPECT_EQ(block.message_count(), 7u);
  const std::uint32_t copies[] = {2, 1, 2, 1, 1};
  for (std::size_t i = 0; i < block.size(); ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_EQ(r.copies, copies[i]) << "row " << i;
    EXPECT_EQ(r.key.kind, 9u);
    EXPECT_TRUE(r.eos);
    const Symbols want_symbols{{0x2au, 7u}, {0x15u, 6u}};
    EXPECT_EQ(replay(r, want_symbols), want_symbols);
  }
}

TEST(MsgBlock, SplitRowsShareOneSpilledPayload) {
  // Rows split off a broadcast reference the lane's single spilled payload
  // rather than re-copying it.
  MsgBlock block;
  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 9; ++i) symbols.emplace_back(0xa0 + i, 40);
  schedule(s, StreamKey{6, 13, 1}, symbols, /*close=*/true, kHeader + 9 * 40);
  ASSERT_TRUE(s.ok);
  block.push(s.view, 0, 0);
  block.add_copy(1, 0);
  block.add_copy(3, 0);   // gap: split
  block.add_copy(4, 11);  // delayed: split
  ASSERT_EQ(block.size(), 3u);
  const MsgBlock::Rec head = block.record(0, kHeader);
  ASSERT_TRUE(spilled(head));
  for (std::size_t i = 1; i < block.size(); ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_TRUE(spilled(r));
    EXPECT_EQ(r.pay_words, head.pay_words) << "row " << i;
    EXPECT_EQ(replay(r, symbols), symbols) << "row " << i;
  }
  EXPECT_EQ(replay(head, symbols), symbols);
}

TEST(MsgBlock, AppendFromParksDelayedBroadcastCopy) {
  // A delayed broadcast copy is its own row, so the delayed-bucket hand-off
  // is a plain append_from: the copy keeps its edge and deliver round and
  // gets its own payload, surviving the lane's clear().
  MsgBlock lane;

  Scheduled s;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  for (unsigned i = 0; i < 9; ++i) symbols.emplace_back(0xa0 + i, 20);
  schedule(s, StreamKey{6, 13, 1}, symbols, /*close=*/true, kHeader + 9 * 20);
  ASSERT_TRUE(s.ok);
  lane.push(s.view, 50, 0);
  lane.add_copy(51, /*deliver_round=*/17);  // this copy is delayed
  ASSERT_EQ(lane.size(), 2u);

  MsgBlock bucket;  // outlives the round
  bucket.append_from(lane, 1, kHeader);

  lane.clear();

  ASSERT_EQ(bucket.message_count(), 1u);
  const MsgBlock::Rec r = bucket.record(0, kHeader);
  EXPECT_EQ(r.edge, 51u);
  EXPECT_EQ(r.copies, 1u);
  EXPECT_EQ(r.deliver_round, 17u);
  EXPECT_TRUE(r.eos);
  EXPECT_TRUE(spilled(r));
  EXPECT_EQ(replay(r, symbols), symbols);
}

TEST(MsgBlock, MessageCountCountsPhysicalCopies) {
  // message_count() is what lane_msgs_peak and the telemetry staged column
  // report: physical copies, not rows — also across a bucket hand-off of a
  // multi-copy row.
  MsgBlock block;
  Scheduled a, b;
  schedule(a, StreamKey{1, 1, 0}, {{1, 4}}, /*close=*/false, kHeader + 4);
  schedule(b, StreamKey{2, 2, 0}, {{2, 4}}, /*close=*/false, kHeader + 4);
  ASSERT_TRUE(a.ok && b.ok);
  block.push(a.view, 3, 0);  // unicast
  block.push(b.view, 7, 0);  // broadcast over 7..10, split at 9
  block.add_copy(8, 0);
  block.add_copy(9, 4);
  block.add_copy(10, 0);
  EXPECT_EQ(block.size(), 4u);
  EXPECT_EQ(block.message_count(), 5u);
  MsgBlock bucket;
  bucket.append_from(block, 1, kHeader);
  EXPECT_EQ(bucket.size(), 1u);
  EXPECT_EQ(bucket.message_count(), 2u);
}

TEST(MsgBlock, MixedWidthReportStreamRoundTripsEveryPath) {
  // A kReport-shaped stream — s one-bit digits, then one ID-width count —
  // staged through every row shape: inline rows (a CONGEST budget splits
  // the stream over several messages; 128 payload bits is the inline
  // limit exactly), spilled rows (a LOCAL drain sends it whole), broadcast
  // rows split by a dropped and a delayed copy, and the delayed bucket.
  // Each receiver's messages, concatenated in one InStream and popped by
  // the format's widths, must give the stream back bit for bit.
  constexpr unsigned kS = 150;
  constexpr unsigned kIdw = 17;
  Symbols format;
  for (unsigned b = 0; b < kS; ++b) {
    format.emplace_back(((b * 5 + 1) % 3) & 1u, 1);
  }
  format.emplace_back(0x1abcdu, kIdw);
  const std::size_t budgets[] = {kHeader + 40, kHeader + 128, 0};  // 0: LOCAL
  for (const std::size_t budget : budgets) {
    Link link;
    OutChannel ch;
    link.add_stream(StreamKey{13, 77, 2}, ch.state());
    for (const auto& [v, w] : format) ch.put(v, w);
    ch.close();
    MsgBlock lane;
    // Every message fans out to edges 10..14: 12's copy is dropped, 13's
    // is delayed to round 5.
    const auto stage = [&](const MsgView& v) {
      lane.push(v, 10, 0);
      lane.add_copy(11, 0);
      lane.add_copy(13, 5);
      lane.add_copy(14, 0);
    };
    if (budget == 0) {
      link.drain_views(kHeader, stage);
    } else {
      MsgView v;
      while (link.schedule_view(budget, kHeader, v)) stage(v);
    }
    InStream in[15];
    MsgBlock bucket;  // outlives the lane's round
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const MsgBlock::Rec r = lane.record(i, kHeader);
      EXPECT_EQ(spilled(r), budget == 0) << "budget " << budget;
      if (r.deliver_round > 0) {
        bucket.append_from(lane, i, kHeader);
        continue;
      }
      for (std::uint32_t j = 0; j < r.copies; ++j) {
        in[r.edge + j].deliver(r.pay_words, r.pay_bits);
        if (r.eos) in[r.edge + j].deliver_eos();
      }
    }
    lane.clear();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const MsgBlock::Rec r = bucket.record(i, kHeader);
      EXPECT_EQ(r.edge, 13u);
      in[13].deliver(r.pay_words, r.pay_bits);
      if (r.eos) in[13].deliver_eos();
    }
    EXPECT_EQ(in[12].available(), 0u);
    EXPECT_FALSE(in[12].closed());
    for (const std::size_t e : {10u, 11u, 13u, 14u}) {
      Symbols got;
      for (const auto& [value, width] : format) {
        (void)value;
        ASSERT_GE(in[e].available(), width) << "budget " << budget;
        got.emplace_back(in[e].pop(width), width);
      }
      EXPECT_EQ(got, format) << "budget " << budget << " edge " << e;
      EXPECT_TRUE(in[e].finished()) << "budget " << budget << " edge " << e;
    }
  }
}

/// The top of the 5-bit kind field (unassigned; kRelAck sits just below).
constexpr std::uint16_t kTopKind = kMaxMsgKinds - 1;

TEST(MsgBlock, ReliabilityKindsRoundTripInlineIncludingMaxWidth) {
  // The reliability service's ACK kind (kRelAck = 30) and kind 31 live at
  // the top of the 5-bit kind field: a regression that narrows the packed
  // kind bits truncates exactly these. Lock the round trip for an inline
  // max-width row under each kind.
  static_assert(kRelAck == 30 && kTopKind == 31);
  MsgBlock block;
  const std::uint64_t big = ~std::uint64_t{0};
  std::vector<Scheduled> scheduled(2);
  const std::uint16_t kinds[2] = {kRelAck, kTopKind};
  for (std::size_t i = 0; i < 2; ++i) {
    schedule(scheduled[i], StreamKey{kinds[i], NodeId(40 + i), 2},
             {{big, 64}, {0x5a5au, 16}}, /*close=*/true, kHeader + 64 + 16);
    ASSERT_TRUE(scheduled[i].ok);
    block.push(scheduled[i].view, i, 0);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Rec r = block.record(i, kHeader);
    EXPECT_EQ(r.key.kind, kinds[i]);  // survives the 5-bit meta packing
    EXPECT_EQ(r.key.tag, NodeId(40 + i));
    EXPECT_EQ(r.key.version, 2u);
    EXPECT_TRUE(r.eos);
    EXPECT_FALSE(spilled(r));
    EXPECT_EQ(r.wire_bits, kHeader + 80u);
    const Symbols want{{big, 64u}, {0x5a5au, 16u}};
    EXPECT_EQ(replay(r, want), want);
  }
}

TEST(MsgBlock, ReliabilityKindsRoundTripSpilled) {
  // Same kinds through the spilled encoding (the row's first word holds the
  // payload offset), plus the delayed-bucket hand-off: append_from must
  // carry every field, the deliver round included.
  MsgBlock block;
  std::vector<std::pair<std::uint64_t, unsigned>> symbols;
  std::size_t payload_bits = 0;
  for (unsigned i = 0; i < 24; ++i) {
    const unsigned w = 64 - (i % 3);  // max and near-max widths
    symbols.emplace_back(
        (std::uint64_t{i + 1} * 0x9e3779b97f4a7c15u) >> (64 - w), w);
    payload_bits += w;
  }
  const std::uint16_t kinds[2] = {kRelAck, kTopKind};
  const std::uint64_t rounds[2] = {123, 456};
  for (std::size_t i = 0; i < 2; ++i) {
    Scheduled s;
    schedule(s, StreamKey{kinds[i], 9000, 0}, symbols, /*close=*/true,
             kHeader + payload_bits);
    ASSERT_TRUE(s.ok);
    block.push(s.view, 7, rounds[i]);
  }
  MsgBlock released;  // heap mode, the lane -> delayed-bucket path
  released.append_from(block, 0, kHeader);
  released.append_from(block, 1, kHeader);
  for (std::size_t i = 0; i < 2; ++i) {
    const MsgBlock::Rec r = released.record(i, kHeader);
    EXPECT_EQ(r.key.kind, kinds[i]);
    EXPECT_EQ(r.deliver_round, rounds[i]);
    EXPECT_EQ(r.edge, 7u);
    EXPECT_EQ(r.copies, 1u);
    EXPECT_TRUE(spilled(r));
    EXPECT_TRUE(r.eos);
    EXPECT_EQ(r.pay_bits, payload_bits);
    const auto got = replay(r, symbols);
    for (std::size_t j = 0; j < symbols.size(); ++j) {
      EXPECT_EQ(got[j], symbols[j]) << "kind " << kinds[i] << " symbol " << j;
    }
  }
}

TEST(ReadPackedBits, GuardsTailWordAndMasks) {
  // A 128-bit run fills its two-word heap block exactly; reads and the
  // word-aligned copy_out that ends on its last bit must not touch a third
  // word (ASan checks), and partial reads are masked.
  const std::uint64_t words[2] = {0xfedcba9876543210u, 0x0f0f0f0f0f0f0f0fu};
  BitRun run;
  run.append_packed(words, 128);
  // Straddling read across the word boundary.
  EXPECT_EQ(run.read(60, 8), ((words[1] & 0xfu) << 4) | (words[0] >> 60));
  // Read ending exactly at the end of the run.
  EXPECT_EQ(run.read(64, 64), words[1]);
  // Partial tail read with off != 0 near the end.
  EXPECT_EQ(run.read(120, 8), words[1] >> 56);
  // Unaligned copy_out up to the last bit: shifted words, zero-filled top.
  std::uint64_t out[2] = {~0ULL, ~0ULL};
  run.copy_out(4, 124, out);
  EXPECT_EQ(out[0], (words[0] >> 4) | (words[1] << 60));
  EXPECT_EQ(out[1], words[1] >> 4);
  // append_packed ignores source bits past nbits: the stored run stays
  // zero above its end, so later appends OR into clean bits.
  BitRun part;
  part.append_packed(words, 68);
  EXPECT_EQ(part.words()[1], words[1] & 0xfu);
  part.put(0, 3);
  EXPECT_EQ(part.read(68, 3), 0u);
}

}  // namespace
}  // namespace nc
