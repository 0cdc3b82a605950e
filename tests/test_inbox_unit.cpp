#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "runtime/inbox.hpp"
#include "test_helpers.hpp"

// Direct unit tests of the flat kind-bucketed inbox: deterministic
// (ni, key) iteration order, kind isolation, find/open semantics, the
// consumed-prefix cursor and the kind-range guard.
//
// Contract note: the runtime only ever touches a stream through open()
// immediately before delivering into it, so these tests do the same — an
// entry that exists but has never received anything is indistinguishable
// from a consumed one, and for_each's prefix cursor is allowed to skip it.

namespace nc {
namespace {

using nc::testing::deliver_symbol;

using Seen = std::vector<std::tuple<std::size_t, NodeId, std::uint16_t>>;

Seen collect(Inbox& inbox, std::uint16_t kind) {
  Seen seen;
  inbox.for_each(kind, [&](std::size_t ni, const StreamKey& key, InStream&) {
    EXPECT_EQ(key.kind, kind);
    seen.emplace_back(ni, key.tag, key.version);
  });
  return seen;
}

TEST(Inbox, IterationOrderIsSortedRegardlessOfInsertionOrder) {
  Inbox inbox;
  // Scrambled insertion: (ni, tag, version) triples of kind 3.
  const std::vector<std::tuple<std::size_t, NodeId, std::uint16_t>> scrambled{
      {2, 5, 0}, {0, 9, 1}, {2, 1, 2}, {0, 9, 0}, {1, 0, 0}, {2, 1, 1}};
  for (const auto& [ni, tag, version] : scrambled) {
    deliver_symbol(inbox.open(ni, StreamKey{3, tag, version}), 1, 4);
  }
  const Seen want{{0, 9, 0}, {0, 9, 1}, {1, 0, 0},
                  {2, 1, 1}, {2, 1, 2}, {2, 5, 0}};
  EXPECT_EQ(collect(inbox, 3), want);
}

TEST(Inbox, KindsAreIsolated) {
  Inbox inbox;
  deliver_symbol(inbox.open(0, StreamKey{1, 7, 0}), 1, 4);
  deliver_symbol(inbox.open(1, StreamKey{2, 7, 0}), 1, 4);
  deliver_symbol(inbox.open(2, StreamKey{1, 8, 0}), 1, 4);
  EXPECT_EQ(collect(inbox, 1).size(), 2u);
  EXPECT_EQ(collect(inbox, 2).size(), 1u);
  EXPECT_TRUE(collect(inbox, 5).empty());
  EXPECT_EQ(inbox.size(), 3u);
}

TEST(Inbox, OpenIsFindOrCreateAndFindDoesNotCreate) {
  Inbox inbox;
  const StreamKey key{4, 11, 2};
  EXPECT_EQ(inbox.find(3, key), nullptr);
  InStream& s = inbox.open(3, key);
  deliver_symbol(s, 42, 8);
  InStream* found = inbox.find(3, key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &inbox.open(3, key));  // same stream, not a duplicate
  EXPECT_EQ(found->pop(8), 42u);
  // Near-miss keys do not match.
  EXPECT_EQ(inbox.find(3, StreamKey{4, 11, 3}), nullptr);
  EXPECT_EQ(inbox.find(3, StreamKey{4, 12, 2}), nullptr);
  EXPECT_EQ(inbox.find(2, key), nullptr);
  EXPECT_EQ(inbox.size(), 1u);
}

TEST(Inbox, ConsumedPrefixIsSkippedAndRevivedByDelivery) {
  Inbox inbox;
  const std::uint16_t kind = 3;
  for (std::size_t ni = 0; ni < 3; ++ni) {
    deliver_symbol(inbox.open(ni, StreamKey{kind, 0, 0}), ni, 4);
  }
  // First sweep sees all three and drains them.
  std::size_t visited = 0;
  inbox.for_each(kind, [&](std::size_t, const StreamKey&, InStream& s) {
    ++visited;
    while (s.available() > 0) (void)s.pop(4);
  });
  EXPECT_EQ(visited, 3u);
  // Everything is drained and unclosed: the whole bucket is consumed
  // prefix now, and the next sweep skips it.
  EXPECT_TRUE(collect(inbox, kind).empty());
  // A delivery to the middle entry pulls the cursor back over it; the
  // trailing (still dead) entry is visited too — only the *prefix* is
  // skipped, so iteration order never changes for surviving entries.
  deliver_symbol(inbox.open(1, StreamKey{kind, 0, 0}), 7, 4);
  const Seen want{{1, 0, 0}, {2, 0, 0}};
  EXPECT_EQ(collect(inbox, kind), want);
}

TEST(Inbox, ClosedStreamsAreNeverSkipped) {
  Inbox inbox;
  const std::uint16_t kind = 2;
  // Entry 0 closes (EOS delivered through open(), as the runtime does);
  // entry 1 stays open and gets drained.
  inbox.open(0, StreamKey{kind, 0, 0}).deliver_eos();
  InStream& s1 = inbox.open(1, StreamKey{kind, 0, 0});
  deliver_symbol(s1, 5, 4);
  while (s1.available() > 0) (void)s1.pop(4);
  // The closed head pins the prefix: visitors that count finished streams
  // (tree finalization, component announce) must keep seeing it, every
  // sweep, even though it has nothing left to pop.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const Seen want{{0, 0, 0}, {1, 0, 0}};
    EXPECT_EQ(collect(inbox, kind), want);
  }
}

TEST(Inbox, OutOfRangeKindThrows) {
  Inbox inbox;
  EXPECT_THROW((void)inbox.find(0, StreamKey{32, 0, 0}), std::invalid_argument);
  EXPECT_THROW((void)inbox.open(0, StreamKey{40, 0, 0}), std::invalid_argument);
  EXPECT_THROW(inbox.for_each(99, [](std::size_t, const StreamKey&,
                                     InStream&) {}),
               std::invalid_argument);
  // The largest valid kind works.
  EXPECT_NO_THROW((void)inbox.open(0, StreamKey{kMaxMsgKinds - 1, 0, 0}));
}

}  // namespace
}  // namespace nc
