#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <new>
#include <ostream>
#include <vector>

#include "util/file_io.hpp"
#include "util/strings.hpp"

namespace lc::graph {
namespace {

constexpr std::uint64_t kMaxId = 0xFFFFFFFFull;

/// The C locale's isspace() set.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  return p;
}

/// Reads an id at `p`: an optional sign and decimal digits, '-' negating
/// modulo 2^64. Returns the end of the id, or nullptr when there are no
/// digits or the digits overflow 64 bits.
const char* read_id(const char* p, const char* end, std::uint64_t& id) {
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  std::uint64_t value = 0;
  const auto [next, error] = std::from_chars(p, end, value);
  if (error != std::errc{}) return nullptr;
  id = negative ? 0 - value : value;
  return next;
}

/// Reads a weight at `p` (before `end`): the longest prefix of the form
/// [+|-] digits [. digits] [(e|E) [+|-] digits], which is what
/// `std::istream >> double` takes. Returns its end, or nullptr when
/// from_chars does not read all of it (no mantissa digit, an exponent mark
/// without digits) or the value is out of double's range (overflow, or
/// underflow to zero).
const char* read_weight(const char* p, const char* end, double& weight) {
  const char* const number = *p == '+' ? p + 1 : p;  // from_chars takes no '+'
  if (*p == '+' || *p == '-') ++p;
  bool dot = false;
  while (p != end && (is_digit(*p) || (*p == '.' && !dot))) dot |= *p++ == '.';
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    while (p != end && is_digit(*p)) ++p;
  }
  const auto [next, error] = std::from_chars(number, p, weight, std::chars_format::general);
  if (error != std::errc{} || next != p) return nullptr;
  return p;
}

/// The edges of an edge list before the graph is built.
struct ParsedEdges {
  std::vector<Edge> edges;
  std::uint64_t max_id = 0;
  std::size_t lines_skipped = 0;
};

/// Appends the edge that [p, eol) holds. False when the line is malformed;
/// a blank or comment line appends nothing and is not malformed.
bool parse_line(const char* p, const char* const eol, ParsedEdges& out) {
  p = skip_space(p, eol);
  if (p == eol || *p == '#') return true;
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  p = read_id(p, eol, u);
  if (p == nullptr) return false;
  p = read_id(skip_space(p, eol), eol, v);
  if (p == nullptr) return false;
  double weight = 1.0;
  p = skip_space(p, eol);
  if (p != eol && read_weight(p, eol, weight) == nullptr) return false;
  if (u == v || !(weight > 0.0) || u > kMaxId || v > kMaxId) return false;
  out.edges.push_back(Edge{static_cast<VertexId>(u), static_cast<VertexId>(v), weight});
  out.max_id = std::max({out.max_id, u, v});
  return true;
}

ParsedEdges parse_lines(std::string_view text) {
  ParsedEdges parsed;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const auto* newline =
        static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const eol = newline == nullptr ? end : newline;
    if (!parse_line(p, eol, parsed)) ++parsed.lines_skipped;
    p = newline == nullptr ? end : newline + 1;
  }
  return parsed;
}

/// Builds the graph over max_id + 1 vertices; an allocation failure becomes
/// the result's error.
std::optional<WeightedGraph> build_graph(ParsedEdges parsed, IoResult* result) {
  IoResult local;
  local.lines_skipped = parsed.lines_skipped;
  const std::uint64_t vertices = parsed.edges.empty() ? 0 : parsed.max_id + 1;
  std::optional<WeightedGraph> graph;
  try {
    GraphBuilder builder(static_cast<std::size_t>(vertices));
    for (const Edge& e : parsed.edges) builder.add_edge(e.u, e.v, e.weight);
    std::vector<Edge>().swap(parsed.edges);
    graph = builder.build();
    local.ok = true;
  } catch (const std::bad_alloc&) {
    local.error = strprintf(
        "out of memory building the graph: max vertex id %llu needs %llu vertices",
        static_cast<unsigned long long>(parsed.max_id),
        static_cast<unsigned long long>(vertices));
  }
  if (result != nullptr) *result = local;
  return graph;
}

void fail(IoResult* result, std::string error) {
  if (result == nullptr) return;
  *result = IoResult{};
  result->error = std::move(error);
}

std::string format_edge_list(const WeightedGraph& graph) {
  // Per edge: two ids of at most 10 digits, a %.17g weight of at most 24
  // bytes ("-2.2250738585072014e-308"), two spaces and the newline.
  constexpr std::size_t kMaxLineBytes = 10 + 1 + 10 + 1 + 24 + 1;
  std::string out = strprintf("# linkcluster edge list: %zu vertices, %zu edges\n",
                              graph.vertex_count(), graph.edge_count());
  const std::size_t header = out.size();
  out.resize(header + graph.edge_count() * kMaxLineBytes);
  char* p = out.data() + header;
  char* const end = out.data() + out.size();
  for (const Edge& e : graph.edges()) {
    p = std::to_chars(p, end, e.u).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, e.v).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, e.weight, std::chars_format::general, 17).ptr;
    *p++ = '\n';
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

}  // namespace

IoResult write_edge_list(const WeightedGraph& graph, std::ostream& out) {
  IoResult result;
  const std::string text = format_edge_list(graph);
  if (!out.write(text.data(), static_cast<std::streamsize>(text.size()))) {
    result.error = "stream write failed";
    return result;
  }
  result.ok = true;
  return result;
}

IoResult write_edge_list(const WeightedGraph& graph, const std::string& path) {
  IoResult result;
  const Status written = write_text_file(path, format_edge_list(graph));
  if (!written.ok()) {
    result.error = written.message();
    return result;
  }
  result.ok = true;
  return result;
}

std::optional<WeightedGraph> parse_edge_list(std::string_view text, IoResult* result) {
  return build_graph(parse_lines(text), result);
}

std::optional<WeightedGraph> read_edge_list(std::istream& in, IoResult* result) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    fail(result, "stream read failed");
    return std::nullopt;
  }
  return parse_edge_list(text, result);
}

// The text is freed when the read returns, after the graph is built and
// before anything is clustered. Freeing it before the build instead raises
// glibc's dynamic mmap threshold to the text's size, so the build's arrays
// land on the heap and stay resident: a `cluster` process on the 4.25 MB
// seed-7 suite ER input then peaks about 1 MiB higher.
std::optional<WeightedGraph> read_edge_list(const std::string& path, IoResult* result) {
  const StatusOr<std::string> text = read_text_file(path);
  if (!text.ok()) {
    fail(result, text.status().message());
    return std::nullopt;
  }
  return parse_edge_list(*text, result);
}

}  // namespace lc::graph
