// Cross-implementation equivalence: the paper's fast sweep, the NBM standard
// baseline, and SLINK must produce the same single-linkage structure on the
// same edge-similarity input — identical merge-height multisets and identical
// flat clusterings at every non-tie threshold. This is the core correctness
// claim of the reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baseline/nbm.hpp"
#include "baseline/slink.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "text/association.hpp"
#include "text/corpus.hpp"
#include "text/tokenizer.hpp"

namespace lc {
namespace {

using graph::WeightedGraph;

struct EquivalenceCase {
  const char* name;
  WeightedGraph (*make)(std::uint64_t seed);
};

WeightedGraph make_er(std::uint64_t seed) {
  return graph::erdos_renyi(24, 0.25, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_ba(std::uint64_t seed) {
  return graph::barabasi_albert(22, 2, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_planted(std::uint64_t seed) {
  return graph::planted_partition(21, 3, 0.7, 0.08, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_ws(std::uint64_t seed) {
  return graph::watts_strogatz(24, 4, 0.3, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_unit_er(std::uint64_t seed) {
  // Unit weights generate heavy similarity ties: the tie-handling stress case.
  return graph::erdos_renyi(20, 0.3, {seed, graph::WeightPolicy::kUnit});
}
WeightedGraph make_word_graph(std::uint64_t seed) {
  text::SyntheticCorpusOptions options;
  options.num_documents = 400;
  options.vocab_size = 300;
  options.num_topics = 6;
  options.seed = seed;
  const text::Corpus corpus = text::generate_corpus(options);
  std::vector<text::TokenizedDocument> docs;
  for (const std::string& doc : corpus.documents) docs.push_back(text::tokenize(doc));
  const text::Vocabulary vocab = text::Vocabulary::build(docs);
  auto ag = text::build_association_graph(docs, vocab, 0.08);
  return std::move(ag.graph);
}

class Equivalence : public testing::TestWithParam<EquivalenceCase> {};

TEST_P(Equivalence, SweepNbmSlinkAgree) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const WeightedGraph graph = GetParam().make(seed);
    if (graph.edge_count() < 3) continue;
    core::SimilarityMap map = core::build_similarity_map(graph);
    map.sort_by_score();
    core::BucketSweepSource source(map);
    const core::EdgeIndex index(graph.edge_count(), core::EdgeOrder::kShuffled, seed);

    const core::SweepResult sweep_result = core::sweep(graph, map, source, index);
    const auto matrix = baseline::EdgeSimilarityMatrix::build(graph, map, index);
    ASSERT_TRUE(matrix.has_value());
    const baseline::NbmResult nbm = baseline::nbm_cluster(*matrix, {/*stop_at_zero=*/true});
    const baseline::SlinkResult slink = baseline::slink_cluster(*matrix);

    // (1) Merge-height multisets agree (sweep/NBM exactly over positive
    // heights; SLINK through its float matrix).
    std::vector<double> sweep_heights;
    for (const core::MergeEvent& e : sweep_result.dendrogram.events()) {
      sweep_heights.push_back(e.similarity);
    }
    std::vector<double> nbm_heights;
    for (const core::MergeEvent& e : nbm.dendrogram.events()) {
      nbm_heights.push_back(e.similarity);
    }
    std::vector<double> slink_heights;
    for (double s : slink.merge_similarities()) {
      if (s > 1e-9) slink_heights.push_back(s);
    }
    std::sort(sweep_heights.begin(), sweep_heights.end());
    std::sort(nbm_heights.begin(), nbm_heights.end());
    std::sort(slink_heights.begin(), slink_heights.end());
    ASSERT_EQ(sweep_heights.size(), nbm_heights.size())
        << GetParam().name << " seed " << seed;
    ASSERT_EQ(sweep_heights.size(), slink_heights.size())
        << GetParam().name << " seed " << seed;
    for (std::size_t i = 0; i < sweep_heights.size(); ++i) {
      EXPECT_NEAR(sweep_heights[i], nbm_heights[i], 1e-5) << GetParam().name << " " << i;
      EXPECT_NEAR(sweep_heights[i], slink_heights[i], 1e-5) << GetParam().name << " " << i;
    }

    // (2) Flat clusterings agree at thresholds strictly between heights.
    std::vector<double> distinct = sweep_heights;
    distinct.erase(std::unique(distinct.begin(), distinct.end(),
                               [](double a, double b) { return std::fabs(a - b) < 1e-7; }),
                   distinct.end());
    std::vector<double> thresholds;
    for (std::size_t i = 0; i + 1 < distinct.size(); ++i) {
      thresholds.push_back(0.5 * (distinct[i] + distinct[i + 1]));
    }
    if (!distinct.empty()) {
      thresholds.push_back(distinct.front() / 2.0);
      thresholds.push_back((distinct.back() + 1.0) / 2.0);
    }
    for (double threshold : thresholds) {
      const auto sweep_labels = sweep_result.dendrogram.labels_at_threshold(threshold);
      const auto nbm_labels = nbm.dendrogram.labels_at_threshold(threshold);
      const auto slink_labels = slink.labels_at_threshold(threshold);
      EXPECT_EQ(sweep_labels, nbm_labels)
          << GetParam().name << " seed " << seed << " threshold " << threshold;
      EXPECT_EQ(sweep_labels, slink_labels)
          << GetParam().name << " seed " << seed << " threshold " << threshold;
    }

    // (3) Final sweep partition equals NBM's stop-at-zero partition.
    const auto nbm_final = nbm.dendrogram.labels_at_threshold(1e-12);
    EXPECT_EQ(sweep_result.final_labels, nbm_final) << GetParam().name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, Equivalence,
                         testing::Values(EquivalenceCase{"erdos_renyi", make_er},
                                         EquivalenceCase{"barabasi_albert", make_ba},
                                         EquivalenceCase{"planted_partition", make_planted},
                                         EquivalenceCase{"watts_strogatz", make_ws},
                                         EquivalenceCase{"unit_weights_ties", make_unit_er},
                                         EquivalenceCase{"word_association", make_word_graph}),
                         [](const testing::TestParamInfo<EquivalenceCase>& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace lc
