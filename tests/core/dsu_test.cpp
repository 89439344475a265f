// MinDsu's journal: the coarse sweep applies each chunk through journaled
// find/unite calls and rewinds a rejected chunk with undo(), so the journal
// must record every parent write and undo() must restore the array bit for
// bit.
#include "core/dsu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace lc::core {
namespace {

struct Pair {
  std::uint32_t a, b;
};

std::vector<Pair> random_pairs(std::size_t n, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.push_back(Pair{static_cast<std::uint32_t>(rng.next_below(n)),
                         static_cast<std::uint32_t>(rng.next_below(n))});
  }
  return pairs;
}

TEST(MinDsuJournal, InitialStateIsIdentity) {
  MinDsu dsu(5);
  EXPECT_EQ(dsu.set_count(), 5u);
  MinDsu::Journal journal;
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(dsu.find(i, journal), i);
  EXPECT_TRUE(journal.empty());  // roots are found without a write
}

TEST(MinDsuJournal, UniteByMinIndexAndJournalShape) {
  MinDsu dsu(6);
  MinDsu::Journal journal;
  EXPECT_TRUE(dsu.unite(4, 2, journal));
  EXPECT_EQ(dsu.find(4, journal), 2u);  // larger root attached to smaller
  EXPECT_TRUE(dsu.unite(2, 0, journal));
  EXPECT_EQ(dsu.find(4, journal), 0u);
  EXPECT_FALSE(dsu.unite(4, 0, journal));  // already joined: no union entry
  EXPECT_EQ(journal_losers_sorted(journal), (std::vector<std::uint32_t>{2, 4}));
  // One union entry per union, {root, root}; the find from 4 through 2 to 0
  // compressed 4, recorded with its old parent 2.
  ASSERT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal[0].node, 4u);
  EXPECT_EQ(journal[0].old_parent, 4u);
  EXPECT_EQ(journal[1].node, 2u);
  EXPECT_EQ(journal[1].old_parent, 2u);
  EXPECT_EQ(journal[2].node, 4u);
  EXPECT_EQ(journal[2].old_parent, 2u);
  EXPECT_EQ(dsu.set_count(), 4u);
}

TEST(MinDsuJournal, UndoRestoresParentArrayBitwise) {
  const std::size_t n = 500;
  MinDsu dsu(n);
  // A non-trivial base state first, then a journaled second wave whose finds
  // compress paths built by the first.
  for (const Pair& pair : random_pairs(n, 300, 7)) dsu.unite(pair.a, pair.b);
  const std::vector<std::uint32_t> before = dsu.parents();
  const std::size_t sets_before = dsu.set_count();
  for (std::uint64_t round = 0; round < 5; ++round) {
    MinDsu::Journal journal;
    for (const Pair& pair : random_pairs(n, 400, 8 + round)) {
      dsu.unite(pair.a, pair.b, journal);
    }
    for (std::uint32_t i = 0; i < n; i += 7) (void)dsu.find(i, journal);
    ASSERT_NE(dsu.parents(), before);
    dsu.undo(journal);
    EXPECT_EQ(dsu.parents(), before) << "round=" << round;
    EXPECT_EQ(dsu.set_count(), sets_before) << "round=" << round;
  }
}

TEST(MinDsuJournal, JournalLosersAreExactlyTheRootsThatFell) {
  const std::size_t n = 800;
  MinDsu dsu(n);
  for (const Pair& pair : random_pairs(n, 300, 21)) dsu.unite(pair.a, pair.b);
  const std::vector<std::uint32_t> before = dsu.labels();
  MinDsu::Journal journal;
  for (const Pair& pair : random_pairs(n, 500, 22)) dsu.unite(pair.a, pair.b, journal);
  const std::vector<std::uint32_t> after = dsu.labels();
  std::vector<std::uint32_t> fell;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (before[i] == i && after[i] != i) fell.push_back(i);
  }
  EXPECT_EQ(journal_losers_sorted(journal), fell);
  // Each loser's find() is its new component minimum.
  for (const std::uint32_t loser : fell) EXPECT_EQ(dsu.find(loser), after[loser]);
}

}  // namespace
}  // namespace lc::core
