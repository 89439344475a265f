// Thin entry point for the `linkcluster` command-line tool; all logic lives
// in src/cli/commands.cpp so the test suite can exercise it directly.
#include <cstdio>
#include <iostream>

#include "cli/commands.hpp"
#include "util/fault_inject.hpp"

int main(int argc, char** argv) {
  // Arm any LC_FAULT_PLAN from the environment.
  lc::fault::arm_from_env();
  // Line-buffer stdout even when piped: `serve` clients read one response
  // line per request, and the chaos harness drives the server through a
  // fifo — a block-buffered reply would deadlock it.
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  return lc::cli::run_command(argc, argv, std::cout, std::cerr);
}
