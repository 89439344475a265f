// lc_suite: the benchmark's helper binary. run.py spawns it for everything
// except the timed `linkcluster` runs themselves.
//
//   info          build facts (compiler, optimisation) as JSON
//   calib         times a fixed single-thread loop (box speed)
//   gen           writes one workload's input graph from a seed
//   check         reclusters the graph in-process at one thread for the
//                 reference digest, scores its best cut, and validates a
//                 merge list when given one
//   trace         per-layer spans of the pipeline, taken from outside
//   serve-client  closed-loop client driving `linkcluster serve`
#include <iostream>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/dendrogram_io.hpp"
#include "core/partition_density.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "suite.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace lc::suite {
namespace {

int cmd_info() {
  JsonObject out;
  out.str("compiler", "gcc " __VERSION__);
#ifdef __OPTIMIZE__
  out.boolean("optimized", true);
#else
  out.boolean("optimized", false);
#endif
#ifdef NDEBUG
  out.boolean("ndebug", true);
#else
  out.boolean("ndebug", false);
#endif
  out.count("hardware_threads", std::thread::hardware_concurrency());
  std::cout << out.text() << "\n";
  return 0;
}

int cmd_calib() {
  JsonObject out;
  out.num("calib_ms", calib_ms());
  std::cout << out.text() << "\n";
  return 0;
}

int cmd_gen(int argc, const char* const* argv) {
  CliFlags flags;
  flags.add_string("graph", "", "er | words | rmat");
  flags.add_int("seed", 7, "generator seed");
  flags.add_bool("smoke", false, "tiny input for the smoke pass");
  flags.add_string("out", "", "edge-list file to write");
  if (!flags.parse(argc, argv) || flags.get_string("out").empty()) return 1;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const bool smoke = flags.get_bool("smoke");
  const std::string kind = flags.get_string("graph");

  graph::WeightedGraph graph;
  if (kind == "er") {
    graph::GeneratorOptions options;
    options.seed = seed;
    options.weights = graph::WeightPolicy::kUniform;
    graph = smoke ? graph::erdos_renyi(400, 0.05, options)
                  : graph::erdos_renyi(6000, 0.008, options);
  } else if (kind == "words") {
    bench::WorkloadOptions options;
    options.seed = seed;
    options.alphas = {0.1};
    options.quick = smoke;
    graph = std::move(bench::build_workloads(options).front().graph);
  } else if (kind == "rmat") {
    bench::RmatOptions options;
    options.scale = smoke ? 9 : 13;
    options.edge_factor = 8;
    options.seed = seed;
    graph = bench::rmat_graph(options);
  } else {
    std::cerr << "lc_suite gen: unknown --graph " << kind << "\n";
    return 1;
  }
  const graph::IoResult io = graph::write_edge_list(graph, flags.get_string("out"));
  if (!io.ok) {
    std::cerr << "lc_suite gen: " << io.error << "\n";
    return 2;
  }
  JsonObject out;
  out.count("vertices", graph.vertex_count())
      .count("edges", graph.edge_count())
      .str("fingerprint", strprintf("0x%016llx", static_cast<unsigned long long>(
                                                     core::graph_fingerprint(graph))));
  std::cout << out.text() << "\n";
  return 0;
}

int cmd_check(int argc, const char* const* argv) {
  CliFlags flags;
  flags.add_string("input", "", "edge-list file to recluster");
  flags.add_string("mode", "fine", "fine | coarse");
  flags.add_string("merges", "", "a merge list of the same input to validate (optional)");
  if (!flags.parse(argc, argv) || flags.get_string("input").empty()) return 1;
  ClusterSpec spec;
  if (!parse_mode(flags.get_string("mode"), &spec.mode)) return 1;
  graph::IoResult io;
  const auto graph = graph::read_edge_list(flags.get_string("input"), &io);
  if (!graph.has_value()) {
    std::cerr << "lc_suite check: cannot read the input: " << io.error << "\n";
    return 2;
  }
  const core::LinkClusterer::Config config = cluster_config(spec);
  StatusOr<core::ClusterResult> reference = core::LinkClusterer(config).run(*graph);
  if (!reference.ok()) {
    std::cerr << "lc_suite check: reference run failed: " << reference.status().to_string()
              << "\n";
    return 2;
  }
  const core::EdgeIndex index(graph->edge_count(), config.edge_order, config.seed);
  const core::DensityCut cut =
      core::best_partition_density_cut(*graph, index, reference->dendrogram);
  JsonObject out;
  out.str("reference_fnv", merge_list_fnv(core::to_merge_list(reference->dendrogram)))
      .num("density", cut.density)
      .count("density_events", cut.event_count);
  if (!flags.get_string("merges").empty()) {
    // Parsing verifies the checksum footer against the body.
    const auto text = read_file(flags.get_string("merges"));
    StatusOr<core::Dendrogram> parsed =
        text.has_value() ? core::parse_merge_list(*text)
                         : StatusOr<core::Dendrogram>(Status::invalid_argument("unreadable"));
    if (!parsed.ok() || parsed->leaf_count() != graph->edge_count()) {
      std::cerr << "lc_suite check: merge list does not parse or does not fit the graph: "
                << parsed.status().to_string() << "\n";
      return 2;
    }
    out.str("fnv", merge_list_fnv(*text));
  }
  std::cout << out.text() << "\n";
  return 0;
}

}  // namespace
}  // namespace lc::suite

int main(int argc, char** argv) {
  lc::set_log_level(lc::LogLevel::kWarn);
  const std::string command = argc >= 2 ? argv[1] : "";
  // Subcommands parse their own flags, with argv[1] as the program name.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "info") return lc::suite::cmd_info();
  if (command == "calib") return lc::suite::cmd_calib();
  if (command == "gen") return lc::suite::cmd_gen(sub_argc, sub_argv);
  if (command == "check") return lc::suite::cmd_check(sub_argc, sub_argv);
  if (command == "trace") return lc::suite::cmd_trace(sub_argc, sub_argv);
  if (command == "serve-client") return lc::suite::cmd_serve_client(sub_argc, sub_argv);
  std::cerr << "usage: lc_suite info | calib | gen | check | trace | serve-client [flags]\n";
  return 1;
}
