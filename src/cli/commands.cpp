#include "cli/commands.hpp"

#include "cli/chaos.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/dendrogram_io.hpp"
#include "core/link_clusterer.hpp"
#include "core/partition_density.hpp"
#include "eval/clustering_metrics.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "text/association.hpp"
#include "text/corpus.hpp"
#include "text/tokenizer.hpp"
#include "util/cli.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace lc::cli {
namespace {

std::optional<graph::WeightedGraph> load_graph(const std::string& path, std::ostream& err) {
  graph::IoResult io;
  auto loaded = graph::read_edge_list(path, &io);
  if (!loaded.has_value()) {
    err << "error: " << io.error << "\n";
    return std::nullopt;
  }
  if (io.lines_skipped > 0) {
    err << "warning: skipped " << io.lines_skipped << " malformed line(s)\n";
  }
  return loaded;
}

/// The --threads boundary: no request may ask for a pool wider than
/// parallel::kMaxThreads.
bool threads_in_range(std::int64_t threads, std::ostream& err) {
  if (threads <= static_cast<std::int64_t>(parallel::kMaxThreads)) return true;
  err << "error: --threads must be at most " << parallel::kMaxThreads << "\n";
  return false;
}

/// Integer flags that a cast to an unsigned type would wrap (a --seed of -1
/// would run with seed 2^64 - 1).
bool not_negative(const CliFlags& flags, const char* name, std::ostream& err) {
  if (flags.get_int(name) >= 0) return true;
  err << "error: --" << name << " must not be negative\n";
  return false;
}

int cmd_stats(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("input", "", "edge-list file");
  if (!flags.parse(argc, argv) || flags.get_string("input").empty()) {
    err << "usage: linkcluster stats --input graph.edges\n";
    return 1;
  }
  const auto graph = load_graph(flags.get_string("input"), err);
  if (!graph.has_value()) return 2;
  const graph::GraphStats stats = graph::compute_stats(*graph);
  Table table({"metric", "value"});
  table.add_row({"vertices", with_commas(stats.vertices)});
  table.add_row({"edges", with_commas(stats.edges)});
  table.add_row({"density", strprintf("%.4f", stats.density)});
  table.add_row({"max degree", with_commas(stats.max_degree)});
  table.add_row({"mean degree", strprintf("%.2f", stats.mean_degree)});
  table.add_row({"K1 (vertex pairs with common neighbor)", with_commas(stats.k1)});
  table.add_row({"K2 (incident edge pairs)", with_commas(stats.k2)});
  table.add_row({"K3 (distinct edge pairs)", with_commas(stats.k3)});
  out << table.to_text();
  return 0;
}

int cmd_cluster(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("input", "", "edge-list file");
  flags.add_string("mode", "fine", "fine | coarse");
  flags.add_int("threads", 1, "worker threads");
  flags.add_double("gamma", 2.0, "coarse: soundness threshold");
  flags.add_int("phi", 100, "coarse: stop threshold");
  flags.add_int("delta0", 1000, "coarse: initial chunk size");
  flags.add_int("seed", 42, "edge enumeration seed");
  flags.add_string("newick", "", "write the dendrogram as Newick to this path");
  flags.add_string("merges", "", "write the merge list to this path");
  flags.add_int("deadline-ms", -1,
                "abort the run after this many milliseconds (0 trips on the "
                "first poll; negative = off)");
  flags.add_int("max-memory-mb", 0, "major-allocation budget in MiB (0 = off)");
  flags.add_string("checkpoint-dir", "",
                   "fine mode: write crash-consistent snapshots of sweep progress "
                   "here (coarse mode reruns an interrupted run instead)");
  flags.add_int("checkpoint-every-ms", 30000,
                "minimum milliseconds between snapshots (0 = every chunk)");
  flags.add_bool("resume", false, "continue from the snapshot in --checkpoint-dir");
  flags.add_string("min-similarity", "",
                   "drop merges below this similarity; coarse mode keeps only "
                   "the keys at or above it in its sorted list");
  if (!flags.parse(argc, argv) || flags.get_string("input").empty()) {
    err << "usage: linkcluster cluster --input graph.edges [--mode fine|coarse] ...\n";
    return 1;
  }
  const std::string mode = flags.get_string("mode");
  if (mode != "fine" && mode != "coarse") {
    err << "error: --mode must be fine or coarse\n";
    return 1;
  }
  if (flags.get_bool("resume") && flags.get_string("checkpoint-dir").empty()) {
    err << "error: --resume requires --checkpoint-dir\n";
    return 1;
  }
  if (mode == "coarse" && !flags.get_string("checkpoint-dir").empty()) {
    err << "error: coarse mode does not checkpoint; rerun an interrupted run instead\n";
    return 1;
  }
  if (!threads_in_range(flags.get_int("threads"), err)) return 1;
  // !(>= 1) also rejects NaN.
  if (!(flags.get_double("gamma") >= 1.0)) {
    err << "error: --gamma must be at least 1\n";
    return 1;
  }
  if (!not_negative(flags, "phi", err) || !not_negative(flags, "seed", err) ||
      !not_negative(flags, "checkpoint-every-ms", err)) {
    return 1;
  }
  if (flags.get_int("delta0") < 1) {
    err << "error: --delta0 must be at least 1\n";
    return 1;
  }
  const auto graph = load_graph(flags.get_string("input"), err);
  if (!graph.has_value()) return 2;

  core::LinkClusterer::Config config;
  config.mode = mode == "fine" ? core::ClusterMode::kFine : core::ClusterMode::kCoarse;
  config.threads = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("threads")));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.coarse.gamma = flags.get_double("gamma");
  config.coarse.phi = static_cast<std::size_t>(flags.get_int("phi"));
  config.coarse.delta0 = static_cast<std::uint64_t>(flags.get_int("delta0"));

  config.checkpoint.directory = flags.get_string("checkpoint-dir");
  config.checkpoint.interval_ms = static_cast<std::uint64_t>(flags.get_int("checkpoint-every-ms"));
  config.resume = flags.get_bool("resume");
  const std::string min_similarity = flags.get_string("min-similarity");
  if (!min_similarity.empty()) {
    char* end = nullptr;
    const double floor = std::strtod(min_similarity.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      err << "error: --min-similarity expects a number\n";
      return 1;
    }
    config.min_similarity = floor;
  }

  RunContext ctx;
  const std::int64_t deadline_ms = flags.get_int("deadline-ms");
  const std::int64_t max_memory_mb = flags.get_int("max-memory-mb");
  if (deadline_ms >= 0) ctx.set_deadline_after(std::chrono::milliseconds(deadline_ms));
  if (max_memory_mb > 0) {
    ctx.set_memory_budget(static_cast<std::uint64_t>(max_memory_mb) * 1024 * 1024);
  }
  // The context is always attached: SIGTERM/SIGINT land as a cooperative
  // cancel, so an interrupted fine run flushes a final checkpoint and exits
  // through the same stop-report path as a tripped deadline or budget.
  config.ctx = &ctx;
  serve::install_stop_handlers();
  serve::SignalWatcher watcher(
      [&ctx](int signo) {
        ctx.request_cancel(signo == SIGINT ? "interrupted (SIGINT)"
                                           : "terminated (SIGTERM)");
      });

  if (config.checkpoint.enabled()) {
    out << (config.resume ? "resuming from " : "checkpointing to ")
        << core::snapshot_path(config.checkpoint.directory) << " (every "
        << config.checkpoint.interval_ms << " ms)\n";
  }

  Stopwatch elapsed;
  StatusOr<core::ClusterResult> run = core::LinkClusterer(config).run(*graph);
  if (!run.ok()) {
    err << "error: " << run.status().to_string() << "\n";
    switch (run.status().code()) {
      case StatusCode::kCancelled:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kResourceExhausted: {
        // The run was stopped, not broken: say why, what it cost, and — when
        // a snapshot exists — how to pick it back up.
        err << "stopped: " << status_code_name(run.status().code()) << " after "
            << format_seconds(elapsed.seconds());
        if (ctx.memory_peak() > 0) {
          err << ", high-water memory " << with_commas(ctx.memory_peak()) << " bytes";
        }
        err << "\n";
        if (config.checkpoint.enabled()) {
          const std::string snapshot = core::snapshot_path(config.checkpoint.directory);
          if (std::filesystem::exists(snapshot)) {
            err << "checkpoint: " << snapshot << " (rerun with --resume to continue)\n";
          }
        }
        return 3;
      }
      default:
        return 2;
    }
  }
  const core::ClusterResult result = std::move(run).value();

  out << "edges clustered: " << graph->edge_count() << "\n";
  out << "K1 = " << with_commas(result.k1) << ", K2 = " << with_commas(result.k2) << "\n";
  out << "dendrogram: " << result.dendrogram.events().size() << " merges, height "
      << result.dendrogram.height() << "\n";
  if (result.passes > 1) {
    out << "memory budget: " << result.passes << " passes over the score triangles\n";
  }
  out << "initialization " << format_seconds(result.timings.initialization_seconds)
      << ", sweeping " << format_seconds(result.timings.sweeping_seconds) << "\n";
  if (result.coarse.has_value()) {
    out << "coarse: " << result.coarse->levels.size() << " levels, "
        << result.coarse->rollback_count << " rollbacks, "
        << strprintf("%.1f%%",
                     100.0 * static_cast<double>(result.coarse->pairs_processed) /
                         static_cast<double>(std::max<std::uint64_t>(1, result.coarse->pairs_total)))
        << " of pairs processed\n";
  }
  if (result.ckpt.has_value() && (result.ckpt->write_failures > 0 || result.ckpt->degraded)) {
    err << "warning: " << result.ckpt->write_failures
        << " snapshot write(s) failed after retries"
        << (result.ckpt->degraded ? "; checkpointing gave up (in-memory only)" : "")
        << "\n";
  }

  const std::string newick_path = flags.get_string("newick");
  if (!newick_path.empty()) {
    std::ofstream file(newick_path);
    if (!file) {
      err << "error: cannot write " << newick_path << "\n";
      return 2;
    }
    file << core::to_newick(result.dendrogram) << "\n";
    out << "wrote " << newick_path << "\n";
  }
  const std::string merges_path = flags.get_string("merges");
  if (!merges_path.empty()) {
    std::ofstream file(merges_path);
    if (!file) {
      err << "error: cannot write " << merges_path << "\n";
      return 2;
    }
    file << core::to_merge_list(result.dendrogram);
    out << "wrote " << merges_path << "\n";
  }
  return 0;
}

int cmd_serve(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("input", "", "edge-list file to preload (optional)");
  flags.add_string("state-dir", "",
                   "keep the run manifest here, so a restart reruns an "
                   "interrupted run");
  flags.add_bool("autorecover", true,
                 "rerun the interrupted run --state-dir describes "
                 "(disable with --no-autorecover)");
  flags.add_int("threads", 1, "default worker threads per run");
  flags.add_int("listen", 0,
                "also accept line-protocol TCP clients on 127.0.0.1:PORT");
  if (!flags.parse(argc, argv)) {
    err << "usage: linkcluster serve [--state-dir DIR] [--listen PORT] ...\n";
    return 1;
  }
  if (!threads_in_range(flags.get_int("threads"), err)) return 1;

  serve::ServerOptions options;
  options.state_dir = flags.get_string("state-dir");
  options.autorecover = flags.get_bool("autorecover");
  options.threads =
      static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("threads")));

  serve::Server server(options, &err);
  serve::install_stop_handlers();

  if (Status recovered = server.autorecover(); !recovered.ok()) {
    // Recovery refusing to run is a warning, not a fatal: the server still
    // serves fresh requests.
    err << "warning: " << recovered.to_string() << "\n";
  }
  const std::string input = flags.get_string("input");
  if (!input.empty()) {
    std::string response;
    server.handle_line("load path=" + serve::quote_value(input), &response);
    out << response << std::flush;
  }

  int listen_fd = -1;
  const std::int64_t port = flags.get_int("listen");
  if (port > 0) {
    StatusOr<int> fd_or = serve::listen_on(static_cast<int>(port));
    if (!fd_or.ok()) {
      err << "error: " << fd_or.status().to_string() << "\n";
      return 2;
    }
    listen_fd = *fd_or;
    err << "listening on 127.0.0.1:" << port << "\n";
  }
  return serve::serve_fds(server, listen_fd, /*use_stdin=*/true, err);
}

int cmd_communities(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("input", "", "edge-list file");
  flags.add_int("top", 10, "communities to print");
  flags.add_int("seed", 42, "edge enumeration seed");
  if (!flags.parse(argc, argv) || flags.get_string("input").empty()) {
    err << "usage: linkcluster communities --input graph.edges [--top N]\n";
    return 1;
  }
  if (!not_negative(flags, "seed", err)) return 1;
  const auto graph = load_graph(flags.get_string("input"), err);
  if (!graph.has_value()) return 2;
  if (graph->edge_count() == 0) {
    out << "graph has no edges\n";
    return 0;
  }
  core::LinkClusterer::Config config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const core::ClusterResult result = core::LinkClusterer(config).cluster(*graph);
  const core::DensityCut cut =
      core::best_partition_density_cut(*graph, result.edge_index, result.dendrogram);
  const eval::OverlapStats overlap = eval::overlap_stats(*graph, result.edge_index, cut.labels);

  out << "partition density " << strprintf("%.4f", cut.density) << " at "
      << cut.event_count << " merges\n";
  out << overlap.communities << " communities over " << overlap.vertices << " vertices; "
      << overlap.overlapping_vertices << " vertices overlap (mean "
      << strprintf("%.2f", overlap.mean_memberships) << " memberships)\n";

  std::map<core::EdgeIdx, std::set<graph::VertexId>> members;
  for (std::size_t idx = 0; idx < cut.labels.size(); ++idx) {
    const graph::Edge& e =
        graph->edge(result.edge_index.edge_at(static_cast<core::EdgeIdx>(idx)));
    members[cut.labels[idx]].insert(e.u);
    members[cut.labels[idx]].insert(e.v);
  }
  std::vector<std::pair<std::size_t, core::EdgeIdx>> ordered;
  for (const auto& [label, verts] : members) ordered.emplace_back(verts.size(), label);
  std::sort(ordered.rbegin(), ordered.rend());
  const auto top = static_cast<std::size_t>(std::max<std::int64_t>(0, flags.get_int("top")));
  for (std::size_t i = 0; i < std::min(top, ordered.size()); ++i) {
    const auto label = ordered[i].second;
    out << "community " << label << " (" << members[label].size() << " vertices):";
    std::size_t shown = 0;
    for (graph::VertexId v : members[label]) {
      out << " " << v;
      if (++shown >= 20) {
        out << " ...";
        break;
      }
    }
    out << "\n";
  }
  return 0;
}

int cmd_generate(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("type", "er", "er | ba | ws | complete | regular");
  flags.add_int("n", 100, "vertices");
  flags.add_double("p", 0.1, "er/ws probability");
  flags.add_int("k", 4, "ws/regular degree (even)");
  flags.add_int("attach", 3, "ba attachment count");
  flags.add_int("seed", 42, "generator seed");
  flags.add_bool("weighted", false, "uniform random weights instead of unit");
  flags.add_string("output", "", "edge-list file to write");
  if (!flags.parse(argc, argv) || flags.get_string("output").empty()) {
    err << "usage: linkcluster generate --type er --n 100 --p 0.1 --output g.edges\n";
    return 1;
  }
  if (!not_negative(flags, "seed", err)) return 1;
  graph::GeneratorOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.weights =
      flags.get_bool("weighted") ? graph::WeightPolicy::kUniform : graph::WeightPolicy::kUnit;
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("n")));
  const std::string type = flags.get_string("type");
  graph::WeightedGraph graph;
  if (type == "er") {
    graph = graph::erdos_renyi(n, flags.get_double("p"), options);
  } else if (type == "ba") {
    graph = graph::barabasi_albert(
        n, static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("attach"))),
        options);
  } else if (type == "ws") {
    graph = graph::watts_strogatz(
        n, static_cast<std::size_t>(std::max<std::int64_t>(2, flags.get_int("k"))),
        flags.get_double("p"), options);
  } else if (type == "complete") {
    graph = graph::complete_graph(n, options);
  } else if (type == "regular") {
    graph = graph::regular_graph(
        n, static_cast<std::size_t>(std::max<std::int64_t>(2, flags.get_int("k"))), options);
  } else {
    err << "error: unknown --type " << type << "\n";
    return 1;
  }
  const graph::IoResult io = graph::write_edge_list(graph, flags.get_string("output"));
  if (!io.ok) {
    err << "error: " << io.error << "\n";
    return 2;
  }
  out << "wrote " << graph.vertex_count() << " vertices, " << graph.edge_count()
      << " edges to " << flags.get_string("output") << "\n";
  return 0;
}

int cmd_assoc(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  CliFlags flags;
  flags.add_string("input", "", "corpus file (one message per line)");
  flags.add_double("alpha", 0.01, "fraction of top candidate words to keep");
  flags.add_string("output", "", "edge-list file to write");
  flags.add_string("words", "", "optional file mapping vertex id -> word");
  if (!flags.parse(argc, argv) || flags.get_string("input").empty() ||
      flags.get_string("output").empty()) {
    err << "usage: linkcluster assoc --input corpus.txt --alpha 0.01 --output g.edges\n";
    return 1;
  }
  std::string error;
  const auto corpus = text::read_corpus_file(flags.get_string("input"), &error);
  if (!corpus.has_value()) {
    err << "error: " << error << "\n";
    return 2;
  }
  std::vector<text::TokenizedDocument> documents;
  documents.reserve(corpus->size());
  for (const std::string& message : corpus->documents) {
    documents.push_back(text::tokenize(message));
  }
  const text::Vocabulary vocab = text::Vocabulary::build(documents);
  const text::AssociationGraph ag =
      text::build_association_graph(documents, vocab, flags.get_double("alpha"));
  const graph::IoResult io = graph::write_edge_list(ag.graph, flags.get_string("output"));
  if (!io.ok) {
    err << "error: " << io.error << "\n";
    return 2;
  }
  out << corpus->size() << " documents, " << vocab.size() << " candidate words; kept "
      << ag.words.size() << " words -> " << ag.graph.edge_count() << " edges ("
      << flags.get_string("output") << ")\n";
  const std::string words_path = flags.get_string("words");
  if (!words_path.empty()) {
    std::ofstream file(words_path);
    if (!file) {
      err << "error: cannot write " << words_path << "\n";
      return 2;
    }
    for (std::size_t v = 0; v < ag.words.size(); ++v) {
      file << v << ' ' << ag.words[v] << '\n';
    }
    out << "wrote " << words_path << "\n";
  }
  return 0;
}

}  // namespace

void print_usage(std::ostream& out) {
  out << "linkcluster — link clustering on multi-core machines (ICDCS'17 reproduction)\n"
         "\n"
         "subcommands:\n"
         "  stats        graph statistics (|V|, |E|, K1, K2, K3, density)\n"
         "  cluster      run link clustering; optionally export the dendrogram\n"
         "  serve        long-lived supervised server (line protocol on stdin,\n"
         "               optional --listen TCP; containment, autorecovery)\n"
         "  communities  maximum-partition-density link communities\n"
         "  generate     write a synthetic benchmark graph\n"
         "  assoc        build a word-association graph from a corpus file (§III)\n"
         "  chaos        seeded fault/crash torture schedules against cluster\n"
         "               and serve children; replay failures with --seed N\n"
         "\n"
         "run `linkcluster <subcommand> --help` for flags\n";
}

int run_command(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    print_usage(err);
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so subcommands parse their own flags (argv[0] = program).
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "stats") return cmd_stats(sub_argc, sub_argv, out, err);
  if (command == "cluster") return cmd_cluster(sub_argc, sub_argv, out, err);
  if (command == "serve") return cmd_serve(sub_argc, sub_argv, out, err);
  if (command == "communities") return cmd_communities(sub_argc, sub_argv, out, err);
  if (command == "generate") return cmd_generate(sub_argc, sub_argv, out, err);
  if (command == "assoc") return cmd_assoc(sub_argc, sub_argv, out, err);
  if (command == "chaos") return cmd_chaos(sub_argc, sub_argv, out, err);
  if (command == "--help" || command == "help" || command == "-h") {
    print_usage(out);
    return 0;
  }
  err << "error: unknown subcommand '" << command << "'\n";
  print_usage(err);
  return 1;
}

}  // namespace lc::cli
