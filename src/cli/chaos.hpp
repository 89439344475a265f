// `lc chaos` — the seeded randomized crash-safety torture harness
// (DESIGN.md §15). Runs K schedules; each arms a random fault plan, drives a
// child `cluster` or `serve` process (optionally SIGKILLing it mid-run or
// corrupting a fine run's snapshot bytes), recovers (a fine batch run
// resumes, a restarted server reruns), and checks the invariants:
// recovered merge lists are byte-identical to a fault-free reference, no
// orphan ".tmp" survives recovery, exit codes stay inside the taxonomy, and
// the server outlives every non-fatal plan. Any violation prints a replay
// line (`linkcluster chaos --seed S --schedules 1`) that reproduces it
// deterministically.
#pragma once

#include <iosfwd>

namespace lc::cli {

int cmd_chaos(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace lc::cli
