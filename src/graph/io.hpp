// Plain-text edge-list I/O.
//
// Format: one edge per line, "u v [weight]"; '#'-prefixed lines are
// comments. This is the common interchange format of SNAP/KONECT-style
// public graph datasets, which substitute for the paper's proprietary
// Twitter-derived graphs when a user wants to feed real data in.
//
// The accepted line grammar. Lines end at '\n' (a last line may lack it);
// whitespace is the C locale's set: space, \t, \n, \v, \f and \r.
//   * A line that is blank, or whose first non-blank byte is '#', is
//     ignored and not counted.
//   * u, then v: optional whitespace, an optional '+' or '-', and decimal
//     digits, read as an unsigned 64-bit value; '-' negates modulo 2^64, so
//     "-0 1" is the edge (0, 1) and "-1" is 2^64 - 1. No whitespace is
//     needed between the ids: "1+2 3" is the edge (1, 2) with weight 3.
//   * An optional weight after optional whitespace: the longest prefix of
//     the form [+|-] digits [. digits] [(e|E) [+|-] digits] with at least one
//     mantissa digit (".5", "5." and "4.9e-324" are weights). Whatever
//     follows the weight is ignored: "1 2 3x" and "1 2 3 4" have weight 3.
//     With nothing after v the weight is 1.0.
// A line is skipped and counted in lines_skipped when u or v has no digits
// or overflows 64 bits ("12", "x 1", "0x10 2"); an id exceeds 2^32 - 1
// ("4294967296 1", "-1 2"); u == v; bytes other than whitespace follow v but
// do not begin a complete weight ("1 2x", "1 2 abc", "1 2 inf", "1 2 1e");
// or the weight is not finite and positive ("1 2 0x10" reads 0, "1 2 -3",
// "1 2 1e999" and "1 2 -1e999" overflow, "1 2 1e-999" underflows to 0).
// Vertex ids may be sparse: the graph has max_id + 1 vertices. Repeated
// edges sum their weights (GraphBuilder).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.hpp"

namespace lc::graph {

struct IoResult {
  bool ok = false;
  std::string error;           ///< empty when ok
  std::size_t lines_skipped = 0;  ///< malformed/self-loop lines dropped (read only)
};

/// Writes `graph` as an edge list: a "# linkcluster edge list" header, then
/// "u v weight" per edge with the weight at 17 significant digits (%.17g),
/// so it reads back bit for bit. Returns ok=false with a message naming the
/// path when the file cannot be opened, written, flushed or closed.
IoResult write_edge_list(const WeightedGraph& graph, const std::string& path);
IoResult write_edge_list(const WeightedGraph& graph, std::ostream& out);

/// Parses edge-list text by the grammar above. Malformed lines are counted
/// in lines_skipped rather than failing the read; the read fails only when
/// the graph cannot be allocated (an id near 2^32 asks for that many
/// vertices), with an error naming max_id and the vertex count.
std::optional<WeightedGraph> parse_edge_list(std::string_view text,
                                             IoResult* result = nullptr);

/// Reads all of `path` (a regular file, a pipe, /dev/stdin) or `in` to end
/// of input and parses it with parse_edge_list. The text is released before
/// the read returns. A path that cannot be opened or read fails with the
/// errno text ("cannot read '/tmp': Is a directory").
std::optional<WeightedGraph> read_edge_list(const std::string& path, IoResult* result = nullptr);
std::optional<WeightedGraph> read_edge_list(std::istream& in, IoResult* result = nullptr);

}  // namespace lc::graph
