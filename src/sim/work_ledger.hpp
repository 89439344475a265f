// Work/span accounting for simulated multicore scaling.
//
// The paper's Fig. 6 measures wall-clock strong scaling on a 6-core Xeon.
// On machines without that parallelism (this reproduction targets laptops
// and containers, including single-core ones), wall-clock cannot show the
// effect, so the parallel algorithms additionally record *work units* into a
// WorkLedger: every parallel round notes how much work each slot (thread)
// performed, and serial sections are width-1 rounds.
//
// The simulated parallel time of a run is the critical path
//
//     T_sim = sum over rounds of max_slot(work)  (+ per-round barrier cost)
//
// and the simulated speedup against a serial ledger is
// serial_total_work / T_sim — the standard work/span bound (Brent's law).
// Work units are proportional to the actual inner-loop iterations each
// parallel section executes, so the prediction tracks what a real multicore
// run of this exact code would do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lc::sim {

struct Round {
  std::vector<std::uint64_t> slot_work;  ///< work units per parallel slot
};

struct Phase {
  std::string name;
  std::vector<Round> rounds;
};

class WorkLedger {
 public:
  /// Starts a named phase (e.g. "init.pass1", "init.pass2.fill",
  /// "sweep.chunk"). Subsequent rounds belong to it.
  void begin_phase(std::string name);

  /// Starts a parallel round with `width` slots, all zero work.
  /// Requires an open phase (begin_phase first).
  void begin_round(std::size_t width);

  /// Adds work units to a slot of the current round. Safe to call
  /// concurrently from different slots (each slot is written by one thread).
  void add_work(std::size_t slot, std::uint64_t units);

  /// Convenience: a width-1 round holding `units` (a serial section).
  void add_serial(std::uint64_t units);

  /// Total work across all phases/rounds/slots.
  [[nodiscard]] std::uint64_t total_work() const;

  /// Critical-path length: sum over rounds of the slot maximum, plus
  /// `barrier_cost` units per round (models synchronization overhead).
  [[nodiscard]] std::uint64_t critical_path(std::uint64_t barrier_cost = 0) const;

  /// Simulated speedup of this ledger's run against a serial baseline that
  /// performs `serial_work` units: serial_work / critical_path.
  [[nodiscard]] double speedup_vs(std::uint64_t serial_work,
                                  std::uint64_t barrier_cost = 0) const;

  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }
  /// The phases whose names start with `prefix` (e.g. "init."), in order,
  /// as a ledger of their own: one layer's work and span.
  [[nodiscard]] WorkLedger phases_with_prefix(std::string_view prefix) const;

  void clear() { phases_.clear(); }

 private:
  std::vector<Phase> phases_;
};

}  // namespace lc::sim
