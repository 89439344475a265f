#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#include "../util/address_space_limit.hpp"
#include "io_reference.hpp"

namespace lc::graph {
namespace {

TEST(GraphIo, StreamRoundTrip) {
  const WeightedGraph original = erdos_renyi(30, 0.2, {77, WeightPolicy::kUniform});
  std::stringstream buffer;
  ASSERT_TRUE(write_edge_list(original, buffer).ok);
  IoResult result;
  const auto loaded = read_edge_list(buffer, &result);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.lines_skipped, 0u);
  ASSERT_EQ(loaded->edge_count(), original.edge_count());
  for (std::size_t i = 0; i < original.edge_count(); ++i) {
    EXPECT_EQ(loaded->edges()[i].u, original.edges()[i].u);
    EXPECT_EQ(loaded->edges()[i].v, original.edges()[i].v);
    EXPECT_NEAR(loaded->edges()[i].weight, original.edges()[i].weight, 1e-9);
  }
}

TEST(GraphIo, FileRoundTrip) {
  const WeightedGraph original = complete_graph(5);
  const std::string path = testing::TempDir() + "/lc_io_test.edges";
  ASSERT_TRUE(write_edge_list(original, path).ok);
  const auto loaded = read_edge_list(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->edge_count(), 10u);
  std::remove(path.c_str());
}

TEST(GraphIo, CommentsAndBlanksIgnored) {
  std::stringstream in("# comment\n\n0 1 2.0\n   \n# another\n1 2\n");
  IoResult result;
  const auto graph = read_edge_list(in, &result);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->edge_count(), 2u);
  EXPECT_DOUBLE_EQ(graph->edges()[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(graph->edges()[1].weight, 1.0);  // default weight
  EXPECT_EQ(result.lines_skipped, 0u);
}

TEST(GraphIo, MalformedLinesSkippedNotFatal) {
  std::stringstream in("0 1 1.0\nnot numbers\n2 2 1.0\n3 4 -1.0\n5 6 2.0\n");
  IoResult result;
  const auto graph = read_edge_list(in, &result);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->edge_count(), 2u);  // (0,1) and (5,6)
  EXPECT_EQ(result.lines_skipped, 3u);  // junk, self-loop, negative weight
}

TEST(GraphIo, NonNumericWeightIsSkippedNotDefaulted) {
  // "1 2 abc" must be counted as malformed — not silently read as weight 1.0.
  std::stringstream in("0 1 2.0\n1 2 abc\n3 4\n");
  IoResult result;
  const auto graph = read_edge_list(in, &result);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->edge_count(), 2u);  // (0,1) weighted, (3,4) default
  EXPECT_EQ(result.lines_skipped, 1u);
  EXPECT_FALSE(graph->has_edge(1, 2));
  EXPECT_DOUBLE_EQ(graph->edges()[1].weight, 1.0);
}

struct BadLineCase {
  const char* name;
  const char* line;
};

TEST(GraphIo, RejectedWeightAndIdForms) {
  // Every case is one bad line sandwiched between two good ones: the good
  // edges must survive and exactly the bad line must be counted.
  const BadLineCase cases[] = {
      {"garbage weight token", "1 2 abc"},
      {"zero weight", "1 2 0"},
      {"negative weight", "1 2 -3.5"},
      {"infinite weight", "1 2 inf"},
      {"negative infinite weight", "1 2 -inf"},
      {"nan weight", "1 2 nan"},
      {"huge first id", "4294967296 2 1.0"},
      {"huge second id", "1 99999999999 1.0"},
      {"self loop", "7 7 1.0"},
      {"lone token", "12"},
      {"negative id", "-1 2 1.0"},
      // A weight that overflows double is not finite, with or without bytes
      // after it; one that underflows reads 0.
      {"overflowing weight", "1 2 1e999"},
      {"negative overflowing weight", "1 2 -1e999"},
      {"overflowing weight with a suffix", "1 2 2e308x"},
      {"underflowing weight", "1 2 1e-999"},
      {"exponent mark without digits", "1 2 1e"},
      {"sign without digits", "1 2 -"},
  };
  for (const BadLineCase& c : cases) {
    std::stringstream in(std::string("0 1 1.0\n") + c.line + "\n3 4 2.0\n");
    IoResult result;
    const auto graph = read_edge_list(in, &result);
    ASSERT_TRUE(graph.has_value()) << c.name;
    EXPECT_EQ(graph->edge_count(), 2u) << c.name;
    EXPECT_EQ(result.lines_skipped, 1u) << c.name;
    EXPECT_TRUE(graph->has_edge(0, 1)) << c.name;
    EXPECT_TRUE(graph->has_edge(3, 4)) << c.name;
  }
}

TEST(GraphIo, CommentOnlyFileGivesEmptyGraph) {
  std::stringstream in("# a\n# b\n\n   \n# c\n");
  IoResult result;
  const auto graph = read_edge_list(in, &result);
  ASSERT_TRUE(graph.has_value());
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.lines_skipped, 0u);
  EXPECT_EQ(graph->vertex_count(), 0u);
  EXPECT_EQ(graph->edge_count(), 0u);
}

TEST(GraphIo, MissingFileFails) {
  IoResult result;
  const auto graph = read_edge_list(std::string("/no/such/file.edges"), &result);
  EXPECT_FALSE(graph.has_value());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(GraphIo, EmptyStreamGivesEmptyGraph) {
  std::stringstream in("");
  const auto graph = read_edge_list(in);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->vertex_count(), 0u);
  EXPECT_EQ(graph->edge_count(), 0u);
}

TEST(GraphIo, SparseVertexIdsCreateRange) {
  std::stringstream in("10 20 1.5\n");
  const auto graph = read_edge_list(in);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->vertex_count(), 21u);
  EXPECT_TRUE(graph->has_edge(10, 20));
}

// ---- The bulk parser against the stream parser it replaced
// (io_reference.hpp). Both see the same text; apart from the lines whose
// weight fails at the end of the line, which the oracle reads as weight 1.0
// and the bulk parser skips, they must build the same graph (every u, v and
// weight bit) and count the same skipped lines.

using testing_reference::reference_read_edge_list;
using testing_reference::reference_weight_fails_at_end_of_line;
using testing_reference::reference_write_edge_list;

void expect_same_graph(const WeightedGraph& actual, const WeightedGraph& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.vertex_count(), expected.vertex_count()) << what;
  ASSERT_EQ(actual.edge_count(), expected.edge_count()) << what;
  for (std::size_t i = 0; i < expected.edge_count(); ++i) {
    const Edge& a = actual.edges()[i];
    const Edge& b = expected.edges()[i];
    ASSERT_TRUE(a.u == b.u && a.v == b.v &&
                std::bit_cast<std::uint64_t>(a.weight) ==
                    std::bit_cast<std::uint64_t>(b.weight))
        << what << ": edge " << i << " is (" << a.u << ", " << a.v << ", " << a.weight
        << "), the oracle's (" << b.u << ", " << b.v << ", " << b.weight << ")";
  }
}

struct Parsed {
  std::optional<WeightedGraph> graph;
  IoResult io;
};

Parsed parse_new(std::string_view text) {
  Parsed parsed;
  parsed.graph = parse_edge_list(text, &parsed.io);
  return parsed;
}

Parsed parse_oracle(std::string_view text) {
  Parsed parsed;
  std::istringstream in{std::string(text)};
  parsed.graph = reference_read_edge_list(in, &parsed.io);
  return parsed;
}

struct QuirkCase {
  const char* line;
  bool accepted;
  VertexId u;
  VertexId v;
  double weight;
};

TEST(GraphIo, KeptQuirksOfTheStreamParser) {
  // Each behaviour was read off the stream parser; the bulk parser keeps it.
  const QuirkCase cases[] = {
      {"+3 4", true, 3, 4, 1.0},
      {"-0 1", true, 0, 1, 1.0},
      {"1 2 3x", true, 1, 2, 3.0},
      {"1 2 3 4", true, 1, 2, 3.0},
      {"1+2 3", true, 1, 2, 3.0},
      {"1 2x", false, 0, 0, 0.0},
      {"1 2 0x10", false, 0, 0, 0.0},
      {"1\t2\t3", true, 1, 2, 3.0},
      {"1 2 3\r", true, 1, 2, 3.0},
      {"1\v2 3", true, 1, 2, 3.0},
      {"1 2\f", true, 1, 2, 1.0},
      {"1 2 .5", true, 1, 2, 0.5},
      {"1 2 5.", true, 1, 2, 5.0},
      {"1 2 4.9e-324", true, 1, 2, 4.9e-324},
      {"1 2 +.5", true, 1, 2, 0.5},
      {"1 2 1e5e3", true, 1, 2, 1e5},
      {"1 2 1.5.3", true, 1, 2, 1.5},
      {"-18446744073709551615 2", true, 1, 2, 1.0},
      {"4294967296 1", false, 0, 0, 0.0},
      {"18446744073709551616 1", false, 0, 0, 0.0},
      {"1 2 e5", false, 0, 0, 0.0},
      {"1 2 .e1", false, 0, 0, 0.0},
      {"1 2 +-5", false, 0, 0, 0.0},
      {"1 2 5e+x", false, 0, 0, 0.0},
  };
  for (const QuirkCase& c : cases) {
    // A good second line shows that at most the case's own line is skipped.
    const std::string text = std::string(c.line) + "\n8 9 2\n";
    for (const Parsed& parsed : {parse_new(text), parse_oracle(text)}) {
      ASSERT_TRUE(parsed.graph.has_value()) << c.line;
      EXPECT_EQ(parsed.io.lines_skipped, c.accepted ? 0u : 1u) << c.line;
      ASSERT_EQ(parsed.graph->edge_count(), c.accepted ? 2u : 1u) << c.line;
      if (c.accepted) {
        const std::optional<double> weight = parsed.graph->edge_weight(c.u, c.v);
        ASSERT_TRUE(weight.has_value()) << c.line;
        EXPECT_EQ(*weight, c.weight) << c.line;
      }
    }
  }
}

TEST(GraphIo, WeightsThatFailAtTheEndOfTheLineAreSkipped) {
  // The stream parser read these as weight 1.0: the failed `>> w` set eofbit
  // and took the no-third-token branch. The bulk parser skips them.
  for (const char* line : {"1 2 1e999", "1 2 -1e999", "1 2 1.7976931348623159e308",
                           "1 2 1e", "1 2 5e-", "1 2 -", "1 2 .", "1 2 1e+"}) {
    ASSERT_TRUE(reference_weight_fails_at_end_of_line(line)) << line;
    const Parsed oracle = parse_oracle(line);
    ASSERT_EQ(oracle.graph->edge_count(), 1u) << line;
    EXPECT_EQ(oracle.graph->edges()[0].weight, 1.0) << line;
    const Parsed parsed = parse_new(line);
    EXPECT_EQ(parsed.graph->edge_count(), 0u) << line;
    EXPECT_EQ(parsed.io.lines_skipped, 1u) << line;
  }
  for (const char* line : {"1 2", "1 2 ", "1 2 3", "1 2 2e308x", "1 2 abc"}) {
    EXPECT_FALSE(reference_weight_fails_at_end_of_line(line)) << line;
  }
}

/// A seeded, structure-aware edge-list corpus: each line is assembled from
/// pieces the grammar distinguishes (signed and zero-padded ids, every
/// whitespace byte, weight forms at the edges of double's range, junk
/// after the weight, comments, blank lines, CRLF), then gets up to two byte
/// edits. An id piece has at most two digits and the over-range pieces (at
/// least 2^32) are never edited, but an edit that joins digit runs can still
/// make a large id; the test drops such lines (see accepts_large_id).
class CorpusMutator {
 public:
  explicit CorpusMutator(std::uint64_t seed) : rng_(seed) {}

  std::string corpus(std::size_t lines) {
    std::string text;
    for (std::size_t i = 0; i < lines; ++i) {
      text += line();
      text += rng_.next_bool(0.1) ? "\r\n" : "\n";
    }
    if (rng_.next_bool(0.5)) text += line();  // a last line without '\n'
    return text;
  }

 private:
  template <std::size_t N>
  const char* pick(const char* const (&options)[N]) {
    return options[rng_.next_below(N)];
  }

  std::string id() {
    if (rng_.next_bool(0.03)) {
      static const char* const kOverRange[] = {"4294967296", "99999999999",
                                               "18446744073709551616", "-1", "-42"};
      fixed_ = true;
      return pick(kOverRange);
    }
    static const char* const kPrefix[] = {"", "", "", "", "+", "-0", "0", "00"};
    std::string text = pick(kPrefix);
    if (text == "-0") {
      return rng_.next_bool(0.5) ? text : text + std::to_string(rng_.next_below(10));
    }
    return text + std::to_string(rng_.next_below(rng_.next_bool(0.5) ? 10 : 100));
  }

  std::string space() {
    static const char* const kSpace[] = {" ", " ", " ", "\t", "  ", " \t ", "\v", "\f",
                                         "\r", ""};
    return pick(kSpace);
  }

  std::string weight() {
    static const char* const kWeight[] = {
        "3", "0.5", ".5", "5.", "+.5", "-.5", "-3.5", "1e-3", "1E2", "2.5e-324",
        "4.9e-324", "2.4e-324", "1e-999", "1e999", "-1e999", "1.7976931348623157e308",
        "1.7976931348623159e308", "2e308x", "0", "-0", "0x10", "inf", "nan", "abc", "1e",
        "1e+", "5e-", "-", ".", "+", "e5", ".e1", "0.30000000000000004", "0.9999999995",
        "00005", "1e5e3", "1.5.3", "7e+0", "+-5", "2,5"};
    if (rng_.next_bool(0.3)) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", rng_.next_double(0.1, 1.0));
      return buffer;
    }
    return pick(kWeight);
  }

  std::string line() {
    fixed_ = false;
    std::string text;
    const std::uint64_t shape = rng_.next_below(20);
    if (shape == 0) {
      text = space() + "# comment 1 2 3";
    } else if (shape == 1) {
      text = space();
    } else if (shape == 2) {
      text = id();  // a lone token
    } else {
      if (rng_.next_bool(0.2)) text += space();
      text += id() + space() + id();
      if (rng_.next_bool(0.7)) text += space() + weight();
      if (rng_.next_bool(0.15)) {
        static const char* const kTail[] = {" 4", "x", " junk", "#c", " ", "\r", " \r"};
        text += pick(kTail);
      }
      if (rng_.next_bool(0.01)) text += std::string(1, '\0');
    }
    if (!fixed_) edit(text);
    return text;
  }

  void edit(std::string& text) {
    static constexpr std::string_view kBytes = "0123456789+-.eE# \t\r\vx\n";
    const std::uint64_t edits = rng_.next_below(3);
    for (std::uint64_t i = 0; i < edits; ++i) {
      const std::size_t at = rng_.next_below(text.size() + 1);
      const char byte = kBytes[rng_.next_below(kBytes.size())];
      switch (rng_.next_below(3)) {
        case 0:
          text.insert(at, 1, byte);
          break;
        case 1:
          if (at < text.size()) text.erase(at, 1);
          break;
        default:
          if (at < text.size()) text[at] = byte;
          break;
      }
    }
  }

  Rng rng_;
  bool fixed_ = false;
};

/// True when the stream parser, by `>> u >> v` alone, would accept an id of
/// 2^16 or more from `line`. Such lines are dropped from the corpus before
/// either parser sees it, so that no graph has more than 2^16 vertices.
bool accepts_large_id(std::string_view line) {
  std::istringstream ls{std::string(line)};
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  if (!(ls >> u >> v)) return false;
  const auto large = [](std::uint64_t id) { return id >= (1u << 16) && id <= 0xFFFFFFFFull; };
  return large(u) || large(v);
}

TEST(GraphIo, MutatedCorporaMatchTheStreamParser) {
  std::size_t divergent_total = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const std::string mutated = CorpusMutator(seed).corpus(12000);
    // Lines are joined back with '\n' between them, so a last line without
    // one stays without one.
    const auto append_line = [](std::string& text, std::string_view line) {
      if (!text.empty()) text.push_back('\n');
      text.append(line);
    };
    std::string text;
    std::size_t dropped = 0;
    for (const std::string_view line : split(mutated, '\n')) {
      if (accepts_large_id(line)) {
        ++dropped;
        continue;
      }
      append_line(text, line);
    }
    ASSERT_LT(dropped, 100u) << "seed " << seed;

    std::string kept;
    std::size_t divergent = 0;
    for (const std::string_view line : split(text, '\n')) {
      if (reference_weight_fails_at_end_of_line(line)) {
        const Parsed alone = parse_new(line);
        EXPECT_EQ(alone.graph->edge_count(), 0u) << "seed " << seed << ": " << line;
        EXPECT_EQ(alone.io.lines_skipped, 1u) << "seed " << seed << ": " << line;
        ++divergent;
        continue;
      }
      append_line(kept, line);
    }
    divergent_total += divergent;
    const std::string what = "seed " + std::to_string(seed);

    // Without the divergent lines the two parsers agree exactly ...
    const Parsed oracle = parse_oracle(kept);
    const Parsed parsed = parse_new(kept);
    ASSERT_TRUE(oracle.graph.has_value() && parsed.graph.has_value()) << what;
    EXPECT_EQ(parsed.io.lines_skipped, oracle.io.lines_skipped) << what;
    expect_same_graph(*parsed.graph, *oracle.graph, what);
    EXPECT_GT(oracle.graph->edge_count(), 1000u) << what;
    EXPECT_GT(oracle.io.lines_skipped, 500u) << what;

    // ... and with them, the bulk parser only counts them as skipped, through
    // every entry point.
    const Parsed whole = parse_new(text);
    EXPECT_EQ(whole.io.lines_skipped, oracle.io.lines_skipped + divergent) << what;
    expect_same_graph(*whole.graph, *oracle.graph, what + " (whole corpus)");
    std::istringstream in(text);
    IoResult stream_io;
    const auto streamed = read_edge_list(in, &stream_io);
    ASSERT_TRUE(streamed.has_value()) << what;
    EXPECT_EQ(stream_io.lines_skipped, whole.io.lines_skipped) << what;
    expect_same_graph(*streamed, *whole.graph, what + " (stream)");
    const std::string path = testing::TempDir() + "/lc_io_mutated.edges";
    std::ofstream(path, std::ios::binary) << text;
    IoResult file_io;
    const auto from_file = read_edge_list(path, &file_io);
    std::remove(path.c_str());
    ASSERT_TRUE(from_file.has_value()) << what;
    EXPECT_EQ(file_io.lines_skipped, whole.io.lines_skipped) << what;
    expect_same_graph(*from_file, *whole.graph, what + " (file)");
  }
  EXPECT_GT(divergent_total, 0u);
}

TEST(GraphIo, WriterMatchesTheOstreamWriter) {
  std::vector<WeightedGraph> graphs;
  for (const WeightPolicy weights : {WeightPolicy::kUniform, WeightPolicy::kUnit}) {
    const GeneratorOptions options{19, weights};
    graphs.push_back(erdos_renyi(200, 0.05, options));
    graphs.push_back(complete_graph(25, options));
    graphs.push_back(regular_graph(60, 6, options));
    graphs.push_back(barabasi_albert(150, 3, options));
    graphs.push_back(watts_strogatz(120, 4, 0.2, options));
    graphs.push_back(planted_partition(90, 3, 0.3, 0.02, options));
    graphs.push_back(disjoint_edges(40, options));
  }
  graphs.push_back(paper_figure1_graph());
  graphs.push_back(WeightedGraph());
  GraphBuilder extremes(6);
  extremes.add_edge(0, 1, 4.9e-324);
  extremes.add_edge(1, 2, 1.7976931348623157e308);
  extremes.add_edge(2, 3, 0.1 + 0.2);
  extremes.add_edge(3, 4, 1e21);
  extremes.add_edge(4, 5, 123456789.5);
  graphs.push_back(extremes.build());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    std::ostringstream expected;
    reference_write_edge_list(graphs[i], expected);
    std::ostringstream actual;
    ASSERT_TRUE(write_edge_list(graphs[i], actual).ok);
    EXPECT_EQ(actual.str(), expected.str()) << "graph " << i;
    // Every weight reads back bit for bit.
    const Parsed back = parse_new(actual.str());
    EXPECT_EQ(back.io.lines_skipped, 0u) << "graph " << i;
    expect_same_graph(*back.graph, graphs[i], "graph " + std::to_string(i));
  }
}

TEST(GraphIo, UnreadablePathNamesTheErrno) {
  const std::filesystem::path dir = testing::TempDir() + "/lc_io_dir_input";
  std::filesystem::create_directories(dir);
  IoResult result;
  EXPECT_FALSE(read_edge_list(dir.string(), &result).has_value());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "cannot read '" + dir.string() + "': Is a directory");
  std::filesystem::remove_all(dir);
}

TEST(GraphIo, FullDeviceFailsTheWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const IoResult result = write_edge_list(complete_graph(30), std::string("/dev/full"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("'/dev/full'"), std::string::npos) << result.error;
}

TEST(GraphIo, GraphTooLargeToAllocateIsAnError) {
  if (testing_support::kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "the sanitizer reserves more address space than the limit";
  }
  // Id 4294967295 is accepted and asks for 2^32 vertices: 32 GiB of offsets.
  EXPECT_EXIT(
      {
        if (!testing_support::limit_address_space(1ull << 30)) std::_Exit(3);
        IoResult result;
        const auto graph = parse_edge_list("4294967295 1\n", &result);
        const bool named = result.error.find("max vertex id 4294967295") != std::string::npos &&
                           result.error.find("4294967296 vertices") != std::string::npos;
        std::_Exit(!graph.has_value() && !result.ok && named ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace lc::graph
