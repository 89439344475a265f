#include "core/dendrogram_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

TEST(Newick, SingleLeaf) {
  const Dendrogram d(1);
  EXPECT_EQ(to_newick(d), "e0:0;");
}

TEST(Newick, EmptyDendrogram) {
  const Dendrogram d(0);
  EXPECT_EQ(to_newick(d), ";");
}

TEST(Newick, TwoLeavesOneMerge) {
  Dendrogram d(2);
  d.add_event(1, 1, 0, 0.6);
  // Leaves at height 1, merge at 0.6 -> branch lengths 0.4.
  EXPECT_EQ(to_newick(d), "(e0:0.4,e1:0.4):0;");
}

TEST(Newick, ForestGetsSuperRoot) {
  const Dendrogram d(3);  // no merges: three isolated leaves
  const std::string newick = to_newick(d);
  // All three leaves present, two super-root joins.
  EXPECT_NE(newick.find("e0"), std::string::npos);
  EXPECT_NE(newick.find("e1"), std::string::npos);
  EXPECT_NE(newick.find("e2"), std::string::npos);
  EXPECT_EQ(std::count(newick.begin(), newick.end(), '('), 2);
}

TEST(Newick, BalancedParenthesesAndAllLeaves) {
  const graph::WeightedGraph graph =
      graph::erdos_renyi(25, 0.25, {3, graph::WeightPolicy::kUniform});
  const ClusterResult result = LinkClusterer().cluster(graph);
  const std::string newick = to_newick(result.dendrogram);
  EXPECT_EQ(std::count(newick.begin(), newick.end(), '('),
            std::count(newick.begin(), newick.end(), ')'));
  EXPECT_EQ(newick.back(), ';');
  for (EdgeIdx i = 0; i < graph.edge_count(); ++i) {
    const std::string leaf = std::string("e").append(std::to_string(i)).append(":");
    EXPECT_NE(newick.find(leaf), std::string::npos) << i;
  }
  // One internal node per merge.
  EXPECT_EQ(static_cast<std::size_t>(std::count(newick.begin(), newick.end(), ',')),
            graph.edge_count() - 1 + 0u);
}

TEST(Newick, CustomLeafNamer) {
  Dendrogram d(2);
  d.add_event(1, 1, 0, 0.5);
  const std::string newick =
      to_newick(d, [](EdgeIdx i) { return "edge_" + std::to_string(i); });
  EXPECT_NE(newick.find("edge_0"), std::string::npos);
  EXPECT_NE(newick.find("edge_1"), std::string::npos);
}

TEST(Newick, NonNegativeBranchLengths) {
  Dendrogram d(3);
  d.add_event(1, 1, 0, 0.9);
  d.add_event(2, 2, 0, 0.4);
  const std::string newick = to_newick(d);
  EXPECT_EQ(newick.find(":-"), std::string::npos);
}

TEST(MergeList, ParseRoundTrip) {
  const graph::WeightedGraph graph =
      graph::erdos_renyi(20, 0.3, {7, graph::WeightPolicy::kUniform});
  const ClusterResult result = LinkClusterer().cluster(graph);
  const std::string text = to_merge_list(result.dendrogram);
  std::string error;
  const auto parsed = from_merge_list(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->leaf_count(), result.dendrogram.leaf_count());
  ASSERT_EQ(parsed->events().size(), result.dendrogram.events().size());
  for (std::size_t i = 0; i < parsed->events().size(); ++i) {
    EXPECT_EQ(parsed->events()[i].level, result.dendrogram.events()[i].level);
    EXPECT_EQ(parsed->events()[i].from, result.dendrogram.events()[i].from);
    EXPECT_EQ(parsed->events()[i].into, result.dendrogram.events()[i].into);
    EXPECT_NEAR(parsed->events()[i].similarity, result.dendrogram.events()[i].similarity,
                1e-8);
  }
  // Replay equivalence: identical final labels.
  EXPECT_EQ(parsed->labels_after(parsed->events().size()),
            result.dendrogram.labels_after(result.dendrogram.events().size()));
}

TEST(MergeList, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(from_merge_list("", &error).has_value());
  EXPECT_FALSE(from_merge_list("junk\n", &error).has_value());
  EXPECT_FALSE(from_merge_list("# leaves=3 events=1\nnot numbers\n", &error).has_value());
  // Wrong event count.
  EXPECT_FALSE(from_merge_list("# leaves=3 events=2\n1 2 0 0.5\n", &error).has_value());
  EXPECT_NE(error.find("event count"), std::string::npos);
  // Invariant violation: from <= into.
  EXPECT_FALSE(from_merge_list("# leaves=3 events=1\n1 0 2 0.5\n", &error).has_value());
  // Decreasing levels.
  EXPECT_FALSE(
      from_merge_list("# leaves=4 events=2\n2 1 0 0.5\n1 3 2 0.4\n", &error).has_value());
}

TEST(MergeList, RoundTripContent) {
  Dendrogram d(4);
  d.add_event(1, 2, 0, 0.75);
  d.add_event(2, 3, 1, 0.25);
  const std::string text = to_merge_list(d);
  EXPECT_NE(text.find("# leaves=4 events=2"), std::string::npos);
  EXPECT_NE(text.find("1 2 0 0.75"), std::string::npos);
  EXPECT_NE(text.find("2 3 1 0.25"), std::string::npos);
  EXPECT_NE(text.find("# fnv="), std::string::npos);
}

TEST(MergeList, ErrorsCarryByteOffsets) {
  auto message = [](std::string_view text) {
    const StatusOr<Dendrogram> parsed = parse_merge_list(text);
    EXPECT_FALSE(parsed.ok());
    return parsed.ok() ? std::string() : parsed.status().message();
  };
  EXPECT_NE(message("").find("at byte 0"), std::string::npos);
  EXPECT_NE(message("junk\n").find("at byte 0"), std::string::npos);
  // The bad field is on the second line, after the 20-byte header.
  const std::string bad_field = message("# leaves=3 events=1\nnot numbers\n");
  EXPECT_NE(bad_field.find("level"), std::string::npos);
  EXPECT_NE(bad_field.find("at byte 20"), std::string::npos);
}

TEST(MergeList, RejectsOverflowingCounts) {
  // 2^64 overflows u64 mid-parse; sscanf would have wrapped silently.
  EXPECT_FALSE(parse_merge_list("# leaves=18446744073709551616 events=0\n").ok());
  // A count that fits u64 but not EdgeIdx is equally impossible.
  EXPECT_FALSE(parse_merge_list("# leaves=4294967296 events=0\n").ok());
  // More events than leaves allow cannot replay.
  EXPECT_FALSE(parse_merge_list("# leaves=3 events=3\n").ok());
}

TEST(MergeList, RejectsTruncatedFinalLine) {
  Dendrogram d(3);
  d.add_event(1, 2, 0, 0.5);
  const std::string text = to_merge_list(d);
  // Every truncation fails except the one that removes exactly the whole
  // footer line — that is a complete pre-footer document by construction.
  const std::size_t footer_start = text.find("# fnv=");
  ASSERT_NE(footer_start, std::string::npos);
  for (std::size_t keep = 0; keep + 1 < text.size(); ++keep) {
    if (keep == footer_start) continue;
    EXPECT_FALSE(parse_merge_list(text.substr(0, keep)).ok()) << "kept " << keep;
  }
}

TEST(MergeList, RejectsDuplicateMerges) {
  // Label 2 merges away twice.
  EXPECT_FALSE(
      parse_merge_list("# leaves=4 events=2\n1 2 0 0.5\n2 2 1 0.4\n").ok());
  // Label 2 was merged away, then absorbs label 3.
  const StatusOr<Dendrogram> dead = parse_merge_list(
      "# leaves=4 events=2\n1 2 0 0.5\n2 3 2 0.4\n");
  ASSERT_FALSE(dead.ok());
  EXPECT_NE(dead.status().message().find("already merged away"), std::string::npos);
}

TEST(MergeList, ChecksumFooterDetectsEditedEvents) {
  Dendrogram d(4);
  d.add_event(1, 2, 0, 0.75);
  d.add_event(2, 3, 1, 0.25);
  const std::string text = to_merge_list(d);
  ASSERT_TRUE(parse_merge_list(text).ok());
  // Edit one digit of an event line without breaking the line format.
  std::string tampered = text;
  const std::size_t at = tampered.find("0.75");
  ASSERT_NE(at, std::string::npos);
  tampered[at + 2] = '8';
  const StatusOr<Dendrogram> parsed = parse_merge_list(tampered);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("checksum mismatch"), std::string::npos);
}

TEST(MergeList, FooterIsOptionalForOlderFiles) {
  // Files written before the footer existed still parse.
  const StatusOr<Dendrogram> parsed =
      parse_merge_list("# leaves=4 events=1\n1 2 0 0.5\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().events().size(), 1u);
}

TEST(MergeList, RejectsContentAfterFooter) {
  Dendrogram d(2);
  d.add_event(1, 1, 0, 0.5);
  const std::string text = to_merge_list(d);
  EXPECT_FALSE(parse_merge_list(text + "1 1 0 0.5\n").ok());
}

TEST(MergeList, RejectsNonFiniteSimilarity) {
  EXPECT_FALSE(parse_merge_list("# leaves=3 events=1\n1 2 0 inf\n").ok());
  EXPECT_FALSE(parse_merge_list("# leaves=3 events=1\n1 2 0 nan\n").ok());
}

}  // namespace
}  // namespace lc::core
