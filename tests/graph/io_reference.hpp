// The stream-based edge-list reader and writer that graph/io.cpp shipped
// before its bulk parser and to_chars writer, kept verbatim as test oracles.
//
// reference_read_edge_list is a getline + istringstream parser: each line is
// trimmed, and `>> u >> v` then `>> w` decide what it holds. Everything the
// bulk parser accepts or skips is defined by what this code does, with one
// exception, a bug of the oracle rather than a rule: when the weight token
// fails to parse and the failure reaches the end of the line ("1 2 1e999",
// "1 2 1e"), the stream's eofbit sends the line down the "no third token"
// branch and it is read as weight 1.0. The bulk parser skips such lines;
// reference_weight_fails_at_end_of_line names them so that the differential
// tests can set them apart.
//
// reference_write_edge_list is the ostream writer at max_digits10.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/strings.hpp"

namespace lc::graph::testing_reference {

inline void reference_write_edge_list(const WeightedGraph& graph, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# linkcluster edge list: " << graph.vertex_count() << " vertices, "
      << graph.edge_count() << " edges\n";
  for (const Edge& e : graph.edges()) {
    out << e.u << ' ' << e.v << ' ' << e.weight << '\n';
  }
}

inline std::optional<WeightedGraph> reference_read_edge_list(std::istream& in,
                                                             IoResult* result) {
  IoResult local;
  struct RawEdge {
    std::uint64_t u, v;
    double w;
  };
  std::vector<RawEdge> raw;
  std::uint64_t max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::istringstream ls{std::string(trimmed)};
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    double w = 1.0;
    if (!(ls >> u >> v)) {
      ++local.lines_skipped;
      continue;
    }
    if (ls >> w) {
      // An explicit weight must be finite and positive (inf survives a plain
      // `w > 0` test; NaN and garbage that parses as 0 must not slip in).
      if (!std::isfinite(w)) {
        ++local.lines_skipped;
        continue;
      }
    } else if (!ls.eof()) {
      // A third token exists but is not a number ("1 2 abc"): the line is
      // malformed, not an unweighted edge — skip it instead of defaulting.
      ++local.lines_skipped;
      continue;
    } else {
      w = 1.0;  // no third token: unweighted edge
    }
    if (u == v || !(w > 0.0)) {
      ++local.lines_skipped;
      continue;
    }
    if (u > 0xFFFFFFFFull || v > 0xFFFFFFFFull) {
      ++local.lines_skipped;
      continue;
    }
    raw.push_back({u, v, w});
    max_id = std::max({max_id, u, v});
  }
  if (in.bad()) {
    local.error = "stream read failed";
    if (result != nullptr) *result = local;
    return std::nullopt;
  }
  GraphBuilder builder(raw.empty() ? 0 : static_cast<std::size_t>(max_id) + 1);
  for (const RawEdge& e : raw) {
    builder.add_edge(static_cast<VertexId>(e.u), static_cast<VertexId>(e.v), e.w);
  }
  local.ok = true;
  if (result != nullptr) *result = local;
  return builder.build();
}

/// True when `line` is one the oracle reads as weight 1.0 only because its
/// weight token failed at the end of the line: `>> u >> v` succeeds, a
/// non-blank third token follows, and `>> w` fails with eofbit set.
inline bool reference_weight_fails_at_end_of_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return false;
  std::istringstream ls{std::string(trimmed)};
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  double w = 0.0;
  if (!(ls >> u >> v)) return false;
  const std::streampos after_v = ls.tellg();
  if (after_v == std::streampos(-1) ||
      trim(trimmed.substr(static_cast<std::size_t>(after_v))).empty()) {
    return false;
  }
  return !(ls >> w) && ls.eof();
}

}  // namespace lc::graph::testing_reference
