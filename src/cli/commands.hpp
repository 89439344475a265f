// The `linkcluster` command-line tool's subcommands, exposed as a library so
// tests can drive them directly.
//
//   linkcluster stats       --input graph.edges
//   linkcluster cluster     --input graph.edges [--mode fine|coarse]
//                           [--threads N] [--gamma G --phi P --delta0 D]
//                           [--newick tree.nwk] [--merges merges.txt]
//                           [--deadline-ms MS] [--max-memory-mb MB]
//   linkcluster communities --input graph.edges [--top N]
//   linkcluster generate    --type er|ba|ws|complete|regular [--n N] [--p P]
//                           [--k K] [--attach A] [--seed S] --output graph.edges
//
// Graphs are plain edge lists ("u v weight", '#' comments; see graph/io.hpp).
#pragma once

#include <iosfwd>

namespace lc::cli {

/// Dispatches argv[1] as the subcommand. Returns a process exit code
/// (0 success, 1 usage error, 2 runtime failure, 3 run stopped by
/// cancellation / deadline / memory budget). All human output goes to `out`,
/// errors to `err`.
int run_command(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

/// Prints the top-level usage text.
void print_usage(std::ostream& out);

}  // namespace lc::cli
