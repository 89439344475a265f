// `lc_suite trace`: the per-layer view of one workload, measured from
// outside the library.
//
// First a traced pass at one thread (the parallel speedups) and one cycle of
// the serve read mix through an in-process serve::Server. Then, while they
// fit in --seconds, rounds of three passes over the same input: an untraced
// pass (read_edge_list -> LinkClusterer::run -> to_merge_list -> write, what
// `linkcluster cluster` does), a traced pass that makes the same public
// calls LinkClusterer::cluster makes, one span per call, and a `linkcluster
// cluster` child process. The order rotates from round to round so drift on
// the box hits all three alike, and each round gives paired differences:
// traced - untraced (tracing cost or divergence) and process - untraced
// (what running as a process adds).
//
// The traced pass deliberately avoids BuildStrategy, PairMapKind,
// SortedSweepSource, sort_by_score and sim::WorkLedger: it follows the
// default configuration only, so those can change without touching it.
#include <fcntl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/coarse.hpp"
#include "core/dendrogram_io.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "suite.hpp"
#include "util/cli.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::suite {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Span {
  std::size_t id = 0;
  std::size_t parent = 0;  ///< 0 = a root span
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int rep = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// In-memory span recorder. Spans nest by call order; ids start at 1.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  std::size_t open(std::string name) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.name = std::move(name);
    span.rep = rep_;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::size_t id) {
    spans_[id - 1].end_ns = now_ns();
    LC_CHECK_MSG(!stack_.empty() && stack_.back() == id, "spans must close innermost first");
    stack_.pop_back();
  }

  void attr(std::size_t id, std::string key, double value) {
    spans_[id - 1].attrs.emplace_back(std::move(key), value);
  }

  [[nodiscard]] double duration_ms(std::size_t id) const {
    const Span& span = spans_[id - 1];
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  void set_rep(int rep) { rep_ = rep; }

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (const Span& span : spans_) {
      if (span.id > 1) out += ",\n";
      std::string attrs = "{";
      for (std::size_t i = 0; i < span.attrs.size(); ++i) {
        if (i > 0) attrs += ',';
        attrs += json_string(span.attrs[i].first) + ":" + json_number(span.attrs[i].second);
      }
      attrs += "}";
      JsonObject record;
      record.count("id", span.id)
          .count("parent", span.parent)
          .str("name", span.name)
          .count("start_ns", static_cast<std::uint64_t>(span.start_ns))
          .count("end_ns", static_cast<std::uint64_t>(span.end_ns))
          .str("workload", workload_)
          .num("rep", span.rep)
          .raw("attrs", attrs);
      out += record.text();
    }
    return out + "]\n";
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::string workload_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  int rep_ = 0;
};

/// Closes its span at scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }
  void attr(std::string key, double value) { tracer_.attr(id_, std::move(key), value); }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

struct Options {
  std::string linkcluster;  ///< the binary the process pass runs
  std::string input;
  ClusterSpec spec;
  std::string merges_out;
  std::size_t queries = 0;  ///< serve cycle: sent while a rerun computes, and again idle
  std::uint64_t seed = 7;
};

struct PassResult {
  double total_ms = 0.0;
  std::string fnv;
};

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "lc_suite trace: " << what << "\n";
  std::exit(2);
}

graph::WeightedGraph load(const std::string& path) {
  graph::IoResult io;
  std::optional<graph::WeightedGraph> graph = graph::read_edge_list(path, &io);
  if (!graph.has_value()) fail("cannot read " + path + ": " + io.error);
  return std::move(*graph);
}

/// What `linkcluster cluster` does between reading its flags and exiting.
PassResult untraced_pass(const Options& options) {
  Stopwatch watch;
  PassResult result;
  {
    const graph::WeightedGraph graph = load(options.input);
    RunContext ctx;
    core::LinkClusterer::Config config = cluster_config(options.spec);
    config.ctx = &ctx;
    StatusOr<core::ClusterResult> run = core::LinkClusterer(config).run(graph);
    if (!run.ok()) fail("untraced run failed: " + run.status().to_string());
    const std::string text = core::to_merge_list(run->dendrogram);
    if (!write_file(options.merges_out, text)) fail("cannot write " + options.merges_out);
    result.fnv = merge_list_fnv(text);
  }
  result.total_ms = watch.millis();
  return result;
}

/// `linkcluster cluster` as a child process, timed from spawn to reap the
/// way run.py times it.
PassResult process_pass(const Options& options) {
  std::vector<std::string> argv = {options.linkcluster, "cluster", "--input", options.input,
                                   "--mode", mode_name(options.spec.mode), "--threads",
                                   std::to_string(options.spec.threads), "--merges",
                                   options.merges_out};
  if (!options.spec.checkpoint_dir.empty()) {
    argv.insert(argv.end(), {"--checkpoint-dir", options.spec.checkpoint_dir,
                             "--checkpoint-every-ms", std::to_string(kCheckpointEveryMs)});
  }
  const int null_fd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  if (null_fd < 0) fail("cannot open /dev/null");
  PassResult result;
  Reaped reaped;
  Stopwatch watch;
  try {
    reaped = reap(spawn(argv, null_fd, null_fd));
  } catch (const std::runtime_error& error) {
    fail(error.what());
  }
  result.total_ms = watch.millis();
  ::close(null_fd);
  if (!reaped.clean) fail("linkcluster cluster exited abnormally");
  const std::optional<std::string> text = read_file(options.merges_out);
  result.fnv = text.has_value() ? merge_list_fnv(*text) : "";
  return result;
}

/// The same pipeline expanded into the public calls LinkClusterer::cluster
/// makes, each wrapped in a span named after its layer. `paired` marks the
/// passes of the rounds (the other one runs at one thread).
PassResult traced_pass(const Options& options, std::size_t threads, bool paired,
                       Tracer& tracer) {
  ClusterSpec spec = options.spec;
  spec.threads = threads;
  const core::LinkClusterer::Config config = cluster_config(spec);
  PassResult result;
  const std::size_t root = tracer.open("pipeline");
  tracer.attr(root, "threads", static_cast<double>(threads));
  tracer.attr(root, "paired", paired ? 1.0 : 0.0);

  std::optional<graph::WeightedGraph> graph;
  {
    Scope span(tracer, "graph.load");
    graph.emplace(load(options.input));
    span.attr("edges", static_cast<double>(graph->edge_count()));
  }
  std::optional<core::EdgeIndex> index;
  {
    Scope span(tracer, "edge_index");
    index.emplace(graph->edge_count(), config.edge_order, config.seed);
  }
  std::optional<core::Checkpointer> checkpointer;
  if (config.checkpoint.enabled()) {
    Scope span(tracer, "checkpoint.setup");
    checkpointer.emplace(config.checkpoint, core::LinkClusterer::fingerprint(*graph, config));
  }
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 1) {
    Scope span(tracer, "pool");
    pool = std::make_unique<parallel::ThreadPool>(threads);
  }

  core::SimilarityMap map;
  {
    Scope span(tracer, "similarity.build");
    RunContext ctx;
    core::BuildStats stats;
    core::SimilarityMapOptions map_options;
    map_options.measure = config.measure;
    map_options.ctx = &ctx;
    map_options.stats = &stats;
    map = pool != nullptr
              ? core::build_similarity_map_parallel(*graph, *pool, nullptr, map_options)
              : core::build_similarity_map(*graph, map_options);
    span.attr("pass1_ms", stats.pass1_ms);
    span.attr("pass2_ms", stats.pass2_ms);
    span.attr("pass3_ms", stats.pass3_ms);
    span.attr("keys", static_cast<double>(map.key_count()));
    span.attr("incident_pairs", static_cast<double>(map.incident_pair_count()));
    span.attr("pairs_exact", static_cast<double>(stats.pairs_exact));
    span.attr("peak_mib", static_cast<double>(ctx.memory_peak()) / kMiB);
  }
  std::optional<core::BucketSweepSource> source;
  {
    Scope span(tracer, "sweep_source.partition");
    core::BucketSweepSource::Options source_options;
    source_options.pool = pool.get();
    source.emplace(map, source_options);
  }

  core::Dendrogram dendrogram;
  core::Checkpointer* ckpt = checkpointer.has_value() ? &*checkpointer : nullptr;
  std::size_t sweep_span = 0;
  if (config.mode == core::ClusterMode::kFine) {
    Scope span(tracer, "sweep");
    sweep_span = span.id();
    RunContext ctx;
    core::SweepResult swept = core::sweep(*graph, map, *source, *index, {},
                                          config.min_similarity, &ctx, ckpt, nullptr);
    span.attr("merges", static_cast<double>(swept.stats.merges_effective));
    span.attr("c_accesses", static_cast<double>(swept.stats.c_accesses));
    span.attr("c_changes", static_cast<double>(swept.stats.c_changes));
    dendrogram = std::move(swept.dendrogram);
  } else {
    Scope span(tracer, "coarse");
    sweep_span = span.id();
    RunContext ctx;
    core::CoarseResult coarse = core::coarse_sweep(*graph, map, *source, *index, config.coarse,
                                                   pool.get(), nullptr, &ctx, ckpt, nullptr);
    span.attr("levels", static_cast<double>(coarse.levels.size()));
    span.attr("epochs", static_cast<double>(coarse.epochs.size()));
    span.attr("rollbacks", static_cast<double>(coarse.rollback_count));
    span.attr("pairs_processed", static_cast<double>(coarse.pairs_processed));
    span.attr("pairs_total", static_cast<double>(coarse.pairs_total));
    span.attr("peak_mib", static_cast<double>(ctx.memory_peak()) / kMiB);
    dendrogram = std::move(coarse.dendrogram);
  }
  {
    Scope span(tracer, "sweep_source.stats");
    const core::SweepSourceStats stats = source->stats();
    span.attr("partition_ms", stats.partition_ms);
    span.attr("bucket_sort_ms", stats.bucket_sort_ms);
    span.attr("blocked_ms", stats.blocked_ms);
    span.attr("buckets", static_cast<double>(stats.bucket_count));
    span.attr("buckets_sorted", static_cast<double>(stats.buckets_sorted));
    // Prefetch stalls and synchronous bucket sorts ran on the sweep's
    // thread, inside its span: recorded there so its self time excludes them.
    tracer.attr(sweep_span, "blocked_ms", stats.blocked_ms);
  }
  if (ckpt != nullptr) {
    tracer.attr(sweep_span, "checkpoint_write_ms", ckpt->write_seconds_total() * 1e3);
    tracer.attr(root, "checkpoint_writes", static_cast<double>(ckpt->snapshots_written()));
    tracer.attr(root, "checkpoint_bytes", static_cast<double>(ckpt->last_snapshot_bytes()));
    tracer.attr(root, "checkpoint_retries", static_cast<double>(ckpt->write_retries_used()));
    tracer.attr(root, "checkpoint_failures", static_cast<double>(ckpt->write_failures()));
  }
  {
    // LinkClusterer::cluster frees the map, the source and the pool before
    // it returns, so the untraced pass pays for this before the output.
    Scope span(tracer, "teardown");
    source.reset();
    map = core::SimilarityMap();
    pool.reset();
    checkpointer.reset();
  }
  std::string text;
  {
    Scope span(tracer, "dendrogram_io.format");
    text = core::to_merge_list(dendrogram);
    span.attr("bytes", static_cast<double>(text.size()));
  }
  {
    Scope span(tracer, "dendrogram_io.write");
    if (!write_file(options.merges_out, text)) fail("cannot write " + options.merges_out);
  }
  {
    Scope span(tracer, "teardown");
    graph.reset();
    index.reset();
    dendrogram = core::Dendrogram();
  }
  tracer.close(root);
  result.fnv = merge_list_fnv(text);
  result.total_ms = tracer.duration_ms(root);
  return result;
}

/// One cycle of the serve read mix through an in-process Server: load,
/// a supervised run beside a direct LinkClusterer::run, queries while a
/// rerun computes, then queries with the worker idle. Each idle cut is
/// repeated as a direct dendrogram call with the same arguments.
std::string serve_cycle(const Options& options, Tracer& tracer) {
  serve::ServerOptions server_options;
  server_options.threads = options.spec.threads;
  std::ostringstream log;
  serve::Server server(server_options, &log);
  const auto call = [&server](const std::string& line) {
    std::string response;
    server.handle_line(line, &response);
    if (response.rfind("ok", 0) != 0) fail("serve: '" + line + "' answered " + response);
    return response;
  };
  const std::string run_line = "run mode=" + mode_name(options.spec.mode) +
                               " merges=" + serve::quote_value(options.merges_out);

  {
    Scope span(tracer, "serve.load");
    call("load path=" + serve::quote_value(options.input));
  }
  {
    Scope span(tracer, "serve.run");
    call(run_line);
    if (call("wait").find("state=done") == std::string::npos) fail("serve run did not finish");
  }
  {
    const graph::WeightedGraph graph = load(options.input);
    ClusterSpec spec = options.spec;
    spec.checkpoint_dir.clear();  // the server runs without snapshots
    Scope span(tracer, "serve.direct_run");
    if (!core::LinkClusterer(cluster_config(spec)).run(graph).ok()) fail("direct run failed");
  }
  const std::shared_ptr<const core::ClusterResult> result = server.supervisor().result();
  const core::Dendrogram& dendrogram = result->dendrogram;
  QueryMix mix(options.seed, dendrogram.leaf_count(), merge_heights(dendrogram));

  const auto query = [&](bool busy) {
    const Query q = mix.next();
    std::size_t query_id = 0;
    {
      Scope span(tracer, "serve.query");
      query_id = span.id();
      span.attr("kind", static_cast<double>(q.kind));
      span.attr("busy", busy ? 1.0 : 0.0);
      call(q.line);
    }
    if (busy || q.kind == QueryKind::kLookup) return;
    if (q.kind == QueryKind::kCutK) {
      Scope span(tracer, "dendrogram.cut_k");
      span.attr("query", static_cast<double>(query_id));
      const std::uint64_t leaves = dendrogram.leaf_count();
      const std::uint64_t drop = q.k >= leaves ? 0 : leaves - q.k;
      (void)dendrogram.labels_after(std::min<std::uint64_t>(drop, dendrogram.events().size()));
    } else {
      Scope span(tracer, "dendrogram.cut_threshold");
      span.attr("query", static_cast<double>(query_id));
      (void)dendrogram.labels_at_threshold(q.threshold);
    }
  };
  call(run_line);
  for (std::size_t i = 0; i < options.queries; ++i) query(true);
  call("wait");
  for (std::size_t i = 0; i < options.queries; ++i) query(false);
  call("shutdown");
  const std::optional<std::string> text = read_file(options.merges_out);
  return text.has_value() ? merge_list_fnv(*text) : "";
}

}  // namespace

int cmd_trace(int argc, const char* const* argv) {
  CliFlags flags;
  flags.add_string("linkcluster", "", "the linkcluster binary (process passes)");
  flags.add_string("input", "", "edge-list file");
  flags.add_string("workload", "", "workload name stamped on every span");
  flags.add_string("mode", "fine", "fine | coarse");
  flags.add_int("threads", 4, "threads of the rounds' passes and the server");
  flags.add_string("checkpoint-dir", "", "snapshot directory (empty = off)");
  flags.add_string("merges-out", "", "merge list written by every pass");
  flags.add_string("spans-out", "", "span file written at the end");
  flags.add_int("queries", 0, "serve cycle: queries while a rerun computes, and again idle");
  flags.add_double("seconds", 0.0, "after the first round, start more that fit in this many seconds");
  flags.add_int("seed", 7, "query mix seed");
  if (!flags.parse(argc, argv) || flags.get_string("linkcluster").empty() ||
      flags.get_string("input").empty() || flags.get_string("merges-out").empty() ||
      flags.get_string("spans-out").empty()) {
    return 1;
  }
  Stopwatch clock;
  Options options;
  options.linkcluster = flags.get_string("linkcluster");
  options.input = flags.get_string("input");
  if (!parse_mode(flags.get_string("mode"), &options.spec.mode)) return 1;
  options.spec.threads = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("threads")));
  options.spec.checkpoint_dir = flags.get_string("checkpoint-dir");
  options.merges_out = flags.get_string("merges-out");
  options.queries = static_cast<std::size_t>(std::max<std::int64_t>(0, flags.get_int("queries")));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // rep 0: the one-thread pass; rep 1: the serve cycle; rep 2 on: the rounds.
  Tracer tracer(flags.get_string("workload"));
  const std::string serial_digest = traced_pass(options, 1, /*paired=*/false, tracer).fnv;
  tracer.set_rep(1);
  const std::string serve_digest = serve_cycle(options, tracer);

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> process_ms;
  std::vector<std::string> round_digests;
  double round_seconds = 0.0;
  for (int round = 0;
       round == 0 || clock.seconds() + round_seconds <= flags.get_double("seconds"); ++round) {
    Stopwatch round_watch;
    tracer.set_rep(2 + round);
    PassResult untraced;
    PassResult traced;
    PassResult process;
    for (int step = 0; step < 3; ++step) {
      switch ((round + step) % 3) {
        case 0:
          untraced = untraced_pass(options);
          break;
        case 1:
          traced = traced_pass(options, options.spec.threads, /*paired=*/true, tracer);
          break;
        default:
          process = process_pass(options);
          break;
      }
    }
    untraced_ms.push_back(untraced.total_ms);
    traced_ms.push_back(traced.total_ms);
    process_ms.push_back(process.total_ms);
    round_digests.insert(round_digests.end(), {untraced.fnv, traced.fnv, process.fnv});
    round_seconds = round_watch.seconds();
  }

  if (!write_file(flags.get_string("spans-out"), tracer.json())) {
    fail("cannot write " + flags.get_string("spans-out"));
  }
  JsonObject out;
  out.raw("untraced_ms", json_array(untraced_ms))
      .raw("traced_ms", json_array(traced_ms))
      .raw("process_ms", json_array(process_ms))
      .raw("round_digests", json_array(round_digests))
      .str("serial_digest", serial_digest)
      .str("serve_digest", serve_digest);
  std::cout << out.text() << "\n";
  return 0;
}

}  // namespace lc::suite
