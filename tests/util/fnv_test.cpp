#include "util/fnv.hpp"

#include <gtest/gtest.h>

#include <string_view>

namespace lc {
namespace {

TEST(Fnv1a64, MatchesReferenceVector) {
  // Standard FNV-1a test vector: "a" -> af63dc4c8601ec8c.
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("", 0), 14695981039346656037ull);
}

TEST(Fnv1a64, SeedChainsIncrementalHashes) {
  constexpr std::string_view text = "0 7 3 0.5\n0 9 2 0.25\n";
  const std::uint64_t whole = fnv1a64(text.data(), text.size());
  const std::uint64_t first = fnv1a64(text.data(), 10);
  EXPECT_EQ(fnv1a64(text.data() + 10, text.size() - 10, first), whole);
}

}  // namespace
}  // namespace lc
