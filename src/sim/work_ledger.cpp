#include "sim/work_ledger.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lc::sim {

void WorkLedger::begin_phase(std::string name) {
  phases_.push_back(Phase{std::move(name), {}});
}

void WorkLedger::begin_round(std::size_t width) {
  LC_CHECK_MSG(!phases_.empty(), "begin_phase before begin_round");
  LC_CHECK_MSG(width >= 1, "a round needs at least one slot");
  phases_.back().rounds.push_back(Round{std::vector<std::uint64_t>(width, 0)});
}

void WorkLedger::add_work(std::size_t slot, std::uint64_t units) {
  LC_CHECK_MSG(!phases_.empty() && !phases_.back().rounds.empty(),
               "begin_round before add_work");
  Round& round = phases_.back().rounds.back();
  LC_CHECK_MSG(slot < round.slot_work.size(), "slot out of range for this round");
  round.slot_work[slot] += units;
}

void WorkLedger::add_serial(std::uint64_t units) {
  if (phases_.empty()) begin_phase("serial");
  begin_round(1);
  add_work(0, units);
}

std::uint64_t WorkLedger::total_work() const {
  std::uint64_t total = 0;
  for (const Phase& phase : phases_) {
    for (const Round& round : phase.rounds) {
      for (std::uint64_t w : round.slot_work) total += w;
    }
  }
  return total;
}

std::uint64_t WorkLedger::critical_path(std::uint64_t barrier_cost) const {
  std::uint64_t path = 0;
  for (const Phase& phase : phases_) {
    for (const Round& round : phase.rounds) {
      const auto it = std::max_element(round.slot_work.begin(), round.slot_work.end());
      path += (it == round.slot_work.end() ? 0 : *it) + barrier_cost;
    }
  }
  return path;
}

double WorkLedger::speedup_vs(std::uint64_t serial_work, std::uint64_t barrier_cost) const {
  const std::uint64_t path = critical_path(barrier_cost);
  if (path == 0) return 1.0;
  return static_cast<double>(serial_work) / static_cast<double>(path);
}

WorkLedger WorkLedger::phases_with_prefix(std::string_view prefix) const {
  WorkLedger subset;
  for (const Phase& phase : phases_) {
    if (phase.name.starts_with(prefix)) subset.phases_.push_back(phase);
  }
  return subset;
}

}  // namespace lc::sim
