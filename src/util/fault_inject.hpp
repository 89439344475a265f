// Fault injection: multi-site fault plans for the robustness tests, the
// `lc chaos` torture harness and the ci_check.sh smokes.
//
// Every injection point is live in every build. Two classes of site exist:
//
//   * Call sites — fault::maybe_fire("site") calls at chunk, block, bucket,
//     snapshot and serve boundaries (and inside RunContext::charge_memory).
//     An armed site can throw std::runtime_error, throw std::bad_alloc, or
//     sleep — proving every unwind path (ThreadPool capture/rethrow,
//     StoppedError conversion, CLI exit codes) without a process death. Nothing armed costs one atomic load per call.
//
//   * I/O sites — the snapshot file-ops seam of util/snapshot_io.hpp
//     (io.write / io.fsync / io.rename / io.corrupt, consumed through
//     consume_io()). They turn into failing syscalls, which makes the
//     retry/backoff ring, the ".prev" fallback, checksum validation and the
//     degrade-to-in-memory paths reachable.
//
// A *fault plan* arms any number of sites simultaneously. Each clause
// carries a kind, a deterministic seeded firing probability, a skip window
// and a fire cap, so correlated and repeated failures ("every third fsync
// fails", "writes fail with 50% probability after the first two") are
// expressible. Plans parse from the LC_FAULT_PLAN environment variable
// (or a file via LC_FAULT_PLAN=@path); see parse_plan() for the grammar.
//
// The authoritative list of sites is the programmatic registry returned by
// site_registry() — arm()/parse_plan() reject unknown names against it, so
// this header cannot drift from the call sites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace lc::fault {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  // Call-site kinds, delivered by maybe_fire():
  kThrow,     ///< throw std::runtime_error("injected fault at <site>")
  kBadAlloc,  ///< throw std::bad_alloc
  kSleep,     ///< sleep sleep_ms, then continue (deadline trip / kill park)
  // I/O kinds, delivered by consume_io() through the snapshot_io FileOps
  // seam (never thrown — the seam turns them into failing syscalls):
  kShortWrite,   ///< fwrite reports fewer bytes than asked (io.write)
  kWriteError,   ///< fwrite fails outright with EIO (io.write)
  kFsyncError,   ///< fflush/fsync fails with EIO (io.fsync)
  kRenameError,  ///< rename fails with EIO (io.rename)
  kCorrupt,      ///< flip one byte of the published file (io.corrupt)
};

/// Canonical token for `kind` ("throw", "short_write", ...).
[[nodiscard]] const char* kind_name(FaultKind kind);

/// How a site delivers its fault, which decides the kinds it accepts.
enum class SiteClass : std::uint8_t {
  kCall,  ///< maybe_fire() call; delivers throw / bad_alloc / sleep
  kIo,    ///< consume_io() through the snapshot FileOps seam
};

struct SiteInfo {
  const char* name;
  SiteClass cls;
  const char* summary;
};

/// Every registered site, the single source of truth for docs and
/// validation. Call sites mirror the maybe_fire() calls exactly.
[[nodiscard]] const std::vector<SiteInfo>& site_registry();

/// Registry entry for `name`, or nullptr when unknown.
[[nodiscard]] const SiteInfo* find_site(std::string_view name);

/// True when `kind` may be armed at `site` (I/O kinds only at their
/// matching io.* site, call-site kinds anywhere else).
[[nodiscard]] bool kind_allowed_at(const SiteInfo& site, FaultKind kind);

/// One armed site inside a plan.
struct FaultClause {
  std::string site;
  FaultKind kind = FaultKind::kNone;
  double probability = 1.0;      ///< chance each eligible hit fires
  std::uint64_t skip_hits = 0;   ///< healthy passes before eligibility
  std::uint64_t max_fires = 0;   ///< 0 = unlimited; else fall silent after
  std::uint32_t sleep_ms = 0;    ///< kSleep only
};

/// A parsed fault plan: any number of simultaneously armed clauses plus the
/// seed of the deterministic probability stream (each clause derives its own
/// generator from seed ^ fnv(site), so plans replay identically).
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultClause> clauses;

  [[nodiscard]] bool empty() const { return clauses.empty(); }
  /// Canonical text form, parseable by parse_plan().
  [[nodiscard]] std::string to_string() const;
};

/// Parses the plan grammar:
///
///   plan    := clause (';' clause)*
///   clause  := 'seed=' u64
///            | site ':' kind (':' option)*
///   option  := 'p=' float | 'skip=' u64 | 'max=' u64 | 'sleep=' u32ms
///   kind    := throw | bad_alloc | sleep | short_write | write_error
///            | fsync_error | rename_error | corrupt
///
/// e.g. "seed=7; io.write:write_error:p=0.5:max=2; sweep.entry:sleep:sleep=500".
/// Unknown sites, unknown kinds, and kind/site mismatches are errors.
[[nodiscard]] StatusOr<FaultPlan> parse_plan(std::string_view text);

/// Arms `plan` (replacing anything armed). Error on unknown site or a kind
/// the site cannot deliver; an empty plan just disarms.
[[nodiscard]] Status arm_plan(const FaultPlan& plan);

/// Arms one site (replacing any previous plan) — the original test-suite
/// API, equivalent to a one-clause plan with probability 1. The fault fires
/// on the (skip_hits + 1)-th pass through the site and on every pass after
/// that, unless max_fires > 0 caps it: after max_fires firings the site
/// falls silent again (how the retry tests model "fail K times, then
/// succeed"). Aborts via LC_CHECK on an unregistered site.
void arm(std::string_view site, FaultKind kind, std::uint64_t skip_hits = 0,
         std::uint32_t sleep_ms = 0, std::uint64_t max_fires = 0);

/// Arms from the environment, letting a parent inject faults into a whole
/// child process (the `lc chaos` driver and the ci_check.sh smokes do).
/// LC_FAULT_PLAN takes the plan grammar above — or "@/path/to/plan.txt" to
/// read the plan text from a file. Returns true when anything was armed; a
/// malformed value aborts via LC_CHECK (a typo silently not faulting would
/// pass the test it was meant to break).
bool arm_from_env();

/// Disarms everything.
void disarm();

/// True while any clause is armed.
[[nodiscard]] bool any_armed();

/// Total fires across all clauses since the last arm.
[[nodiscard]] std::uint64_t fire_count();

/// Fires charged to one site since the last arm.
[[nodiscard]] std::uint64_t fire_count(std::string_view site);

/// Canonical text of the armed plan ("" when nothing is armed). Recorded in
/// bench context so gating tooling can refuse contaminated runs.
[[nodiscard]] std::string active_plan();

/// Called at every call site. Fast path (nothing armed) is one atomic load.
/// Delivers kThrow/kBadAlloc/kSleep; I/O kinds are never delivered here.
void maybe_fire(const char* site);

/// Called by the snapshot FileOps seam at the io.* sites. Returns the kind
/// that fired (kNone when healthy). When `draw` is non-null it receives a
/// value from the clause's deterministic stream (io.corrupt uses it to pick
/// the byte to flip). Fast path is one relaxed atomic load.
[[nodiscard]] FaultKind consume_io(const char* site, std::uint64_t* draw = nullptr);

}  // namespace lc::fault
