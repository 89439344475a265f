#include "text/vocabulary.hpp"

#include <gtest/gtest.h>

namespace lc::text {
namespace {

std::vector<TokenizedDocument> sample_docs() {
  return {
      {"apple", "banana", "apple"},
      {"apple", "cherry"},
      {"banana", "apple"},
  };
}

TEST(Vocabulary, CountsEveryAppearance) {
  const Vocabulary vocab = Vocabulary::build(sample_docs());
  ASSERT_EQ(vocab.size(), 3u);
  EXPECT_EQ(vocab.ranked()[0].word, "apple");
  EXPECT_EQ(vocab.ranked()[0].count, 4u);
  EXPECT_EQ(vocab.ranked()[1].word, "banana");
  EXPECT_EQ(vocab.ranked()[1].count, 2u);
  EXPECT_EQ(vocab.ranked()[2].word, "cherry");
  EXPECT_EQ(vocab.ranked()[2].count, 1u);
}

TEST(Vocabulary, TiesBreakLexicographically) {
  const std::vector<TokenizedDocument> docs = {{"zebra", "ant"}, {"zebra", "ant"}};
  const Vocabulary vocab = Vocabulary::build(docs);
  EXPECT_EQ(vocab.ranked()[0].word, "ant");
  EXPECT_EQ(vocab.ranked()[1].word, "zebra");
}

TEST(Vocabulary, RankOf) {
  const Vocabulary vocab = Vocabulary::build(sample_docs());
  EXPECT_EQ(vocab.rank_of("apple"), 0u);
  EXPECT_EQ(vocab.rank_of("cherry"), 2u);
  EXPECT_EQ(vocab.rank_of("missing"), vocab.size());
}

TEST(Vocabulary, SelectionSizeCeil) {
  const Vocabulary vocab = Vocabulary::build(sample_docs());  // size 3
  EXPECT_EQ(vocab.selection_size(0.0), 0u);
  EXPECT_EQ(vocab.selection_size(0.01), 1u);  // ceil(0.03)
  EXPECT_EQ(vocab.selection_size(0.5), 2u);   // ceil(1.5)
  EXPECT_EQ(vocab.selection_size(1.0), 3u);
  EXPECT_EQ(vocab.selection_size(2.0), 3u);   // clamped
}

TEST(Vocabulary, TopFractionInRankOrder) {
  const Vocabulary vocab = Vocabulary::build(sample_docs());
  const auto top = vocab.top_fraction(0.67);
  ASSERT_EQ(top.size(), 3u);  // ceil(2.01)
  EXPECT_EQ(top[0], "apple");
  EXPECT_EQ(top[1], "banana");
}

TEST(Vocabulary, EmptyCorpus) {
  const Vocabulary vocab = Vocabulary::build({});
  EXPECT_EQ(vocab.size(), 0u);
  EXPECT_TRUE(vocab.top_fraction(1.0).empty());
}

TEST(VocabularyDeathTest, NegativeFractionRejected) {
  const Vocabulary vocab = Vocabulary::build(sample_docs());
  EXPECT_DEATH(static_cast<void>(vocab.selection_size(-0.1)), "non-negative");
}

}  // namespace
}  // namespace lc::text
