// Umbrella header for the linkcluster library.
//
// linkcluster is a from-scratch C++20 implementation of
//   Guanhua Yan, "Improving Efficiency of Link Clustering on Multi-Core
//   Machines", IEEE ICDCS 2017,
// covering the efficient serial link-clustering algorithm, coarse-grained
// clustering with the head/tail/rollback mode machine, multi-threaded
// initialization and sweeping, the O(|E|^2) standard baselines (NBM, SLINK),
// and the word-association-network construction pipeline the paper evaluates
// on.
//
// Typical use:
//
//   #include <linkcluster.hpp>
//
//   lc::graph::GraphBuilder builder(n);
//   builder.add_edge(u, v, weight);
//   const lc::graph::WeightedGraph graph = builder.build();
//
//   lc::core::LinkClusterer::Config config;
//   config.mode = lc::core::ClusterMode::kCoarse;
//   config.threads = 4;
//   const auto result = lc::core::LinkClusterer(config).cluster(graph);
//   // result.dendrogram, result.final_labels, result.stats, ...
#pragma once

#include "baseline/edge_similarity_matrix.hpp"  // IWYU pragma: export
#include "baseline/memory_model.hpp"            // IWYU pragma: export
#include "baseline/mst.hpp"                     // IWYU pragma: export
#include "baseline/nbm.hpp"                     // IWYU pragma: export
#include "baseline/slink.hpp"                   // IWYU pragma: export
#include "core/cluster_array.hpp"               // IWYU pragma: export
#include "core/coarse.hpp"                      // IWYU pragma: export
#include "core/dendrogram.hpp"                  // IWYU pragma: export
#include "core/dendrogram_io.hpp"               // IWYU pragma: export
#include "core/dsu.hpp"                         // IWYU pragma: export
#include "eval/clustering_metrics.hpp"          // IWYU pragma: export
#include "core/edge_index.hpp"                  // IWYU pragma: export
#include "core/link_clusterer.hpp"              // IWYU pragma: export
#include "core/partition_density.hpp"           // IWYU pragma: export
#include "core/similarity.hpp"                  // IWYU pragma: export
#include "core/sweep.hpp"                       // IWYU pragma: export
#include "core/sweep_source.hpp"                // IWYU pragma: export
#include "graph/components.hpp"                 // IWYU pragma: export
#include "graph/generators.hpp"                 // IWYU pragma: export
#include "graph/graph.hpp"                      // IWYU pragma: export
#include "graph/io.hpp"                         // IWYU pragma: export
#include "graph/stats.hpp"                      // IWYU pragma: export
#include "numeric/series.hpp"                   // IWYU pragma: export
#include "numeric/sigmoid.hpp"                  // IWYU pragma: export
#include "parallel/thread_pool.hpp"             // IWYU pragma: export
#include "sim/work_ledger.hpp"                  // IWYU pragma: export
#include "text/association.hpp"                 // IWYU pragma: export
#include "text/corpus.hpp"                      // IWYU pragma: export
#include "text/porter.hpp"                      // IWYU pragma: export
#include "text/stopwords.hpp"                   // IWYU pragma: export
#include "text/tokenizer.hpp"                   // IWYU pragma: export
#include "text/vocabulary.hpp"                  // IWYU pragma: export
