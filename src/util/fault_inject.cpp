#include "util/fault_inject.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace lc::fault {
namespace {

// The plan is a handful of clauses behind one mutex; g_armed is the
// lock-free fast-path gate. The slow path only runs with a fault armed —
// a chaos or test process — so the lock is never on a measured path.
std::atomic<bool> g_armed{false};
std::mutex g_mutex;

struct ArmedClause {
  FaultClause spec;
  Rng rng{0};                        ///< deterministic per-clause stream
  std::uint64_t skip_remaining = 0;
  std::uint64_t fired = 0;
};

std::vector<ArmedClause>& clauses() {
  static std::vector<ArmedClause> instance;
  return instance;
}

std::uint64_t g_seed = 0;
std::atomic<std::uint64_t> g_fired_total{0};

std::uint64_t fnv1a64_str(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// The single source of truth for site names. kCall entries mirror the
// maybe_fire() calls; kIo entries are the consume_io() calls of the
// snapshot FileOps seam.
const std::vector<SiteInfo>& registry_storage() {
  static const std::vector<SiteInfo> instance = {
      {"sim.pass1", SiteClass::kCall, "degree/neighbor precompute task"},
      {"build.gather", SiteClass::kCall, "similarity build: gather block task"},
      {"sweep.entry", SiteClass::kCall, "fine sweep entry boundary"},
      {"sweep.bucket", SiteClass::kCall, "bucketed sweep source: bucket sort"},
      {"coarse.chunk", SiteClass::kCall, "coarse chunk boundary"},
      {"coarse.apply", SiteClass::kCall, "coarse chunk apply task"},
      {"coarse.journal", SiteClass::kCall, "coarse merge journal"},
      {"coarse.snapshot", SiteClass::kCall, "coarse rollback snapshot"},
      {"baseline.matrix", SiteClass::kCall, "baseline similarity matrix"},
      {"baseline.nbm", SiteClass::kCall, "baseline NBM build"},
      {"snapshot.serialize", SiteClass::kCall, "snapshot serialization"},
      {"snapshot.write", SiteClass::kCall, "snapshot tmp-file write window"},
      {"snapshot.rename", SiteClass::kCall, "snapshot publish rename window"},
      {"snapshot.load", SiteClass::kCall, "snapshot load/validate"},
      {"serve.accept", SiteClass::kCall, "TCP accept path of serve_fds"},
      {"serve.manifest.write", SiteClass::kCall, "run manifest persistence"},
      {"serve.worker.spawn", SiteClass::kCall, "supervisor worker-thread spawn"},
      {"memory.charge", SiteClass::kCall,
       "RunContext::charge_memory (ENOMEM via kBadAlloc)"},
      {"io.write", SiteClass::kIo, "snapshot fwrite (short_write | write_error)"},
      {"io.fsync", SiteClass::kIo, "snapshot fflush+fsync (fsync_error)"},
      {"io.rename", SiteClass::kIo, "snapshot rotate/publish rename (rename_error)"},
      {"io.corrupt", SiteClass::kIo, "post-publish byte flip (corrupt)"},
  };
  return instance;
}

StatusOr<FaultKind> parse_kind(std::string_view token) {
  if (token == "throw") return FaultKind::kThrow;
  if (token == "bad_alloc") return FaultKind::kBadAlloc;
  if (token == "sleep") return FaultKind::kSleep;
  if (token == "short_write") return FaultKind::kShortWrite;
  if (token == "write_error") return FaultKind::kWriteError;
  if (token == "fsync_error") return FaultKind::kFsyncError;
  if (token == "rename_error") return FaultKind::kRenameError;
  if (token == "corrupt") return FaultKind::kCorrupt;
  return Status::invalid_argument("fault plan: unknown kind '" +
                                  std::string(token) + "'");
}

bool parse_u64_strict(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const std::string token(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool parse_probability(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string token(text);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

/// Seeds one clause's generator so identical (plan seed, site, position)
/// always replays the identical fire pattern.
Rng clause_rng(std::uint64_t plan_seed, const FaultClause& clause,
               std::size_t position) {
  return Rng(plan_seed ^ fnv1a64_str(clause.site) ^
             (0x9e3779b97f4a7c15ull * (position + 1)));
}

void install_locked(const FaultPlan& plan) {
  clauses().clear();
  g_seed = plan.seed;
  for (std::size_t i = 0; i < plan.clauses.size(); ++i) {
    ArmedClause armed;
    armed.spec = plan.clauses[i];
    armed.rng = clause_rng(plan.seed, plan.clauses[i], i);
    armed.skip_remaining = plan.clauses[i].skip_hits;
    clauses().push_back(std::move(armed));
  }
  g_fired_total.store(0, std::memory_order_relaxed);
  g_armed.store(!clauses().empty(), std::memory_order_release);
}

/// Applies the skip/max/probability window for one eligible hit. Must hold
/// g_mutex. Returns true when the clause fires this hit.
bool clause_fires(ArmedClause& clause) {
  if (clause.skip_remaining > 0) {
    --clause.skip_remaining;
    return false;
  }
  if (clause.spec.max_fires > 0 && clause.fired >= clause.spec.max_fires) {
    return false;  // spent: the site behaves as if healthy again
  }
  if (clause.spec.probability < 1.0 &&
      clause.rng.next_double() >= clause.spec.probability) {
    return false;
  }
  ++clause.fired;
  g_fired_total.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kBadAlloc:
      return "bad_alloc";
    case FaultKind::kSleep:
      return "sleep";
    case FaultKind::kShortWrite:
      return "short_write";
    case FaultKind::kWriteError:
      return "write_error";
    case FaultKind::kFsyncError:
      return "fsync_error";
    case FaultKind::kRenameError:
      return "rename_error";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  return "none";
}

const std::vector<SiteInfo>& site_registry() { return registry_storage(); }

const SiteInfo* find_site(std::string_view name) {
  for (const SiteInfo& site : registry_storage()) {
    if (name == site.name) return &site;
  }
  return nullptr;
}

bool kind_allowed_at(const SiteInfo& site, FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return false;
    case FaultKind::kThrow:
    case FaultKind::kBadAlloc:
    case FaultKind::kSleep:
      return site.cls != SiteClass::kIo;
    case FaultKind::kShortWrite:
    case FaultKind::kWriteError:
      return std::string_view(site.name) == "io.write";
    case FaultKind::kFsyncError:
      return std::string_view(site.name) == "io.fsync";
    case FaultKind::kRenameError:
      return std::string_view(site.name) == "io.rename";
    case FaultKind::kCorrupt:
      return std::string_view(site.name) == "io.corrupt";
  }
  return false;
}

std::string FaultPlan::to_string() const {
  std::string out;
  if (seed != 0) out.append("seed=").append(std::to_string(seed));
  for (const FaultClause& clause : clauses) {
    if (!out.empty()) out += ";";
    out += clause.site;
    out += ":";
    out += kind_name(clause.kind);
    if (clause.probability < 1.0) {
      std::ostringstream p;
      p << ":p=" << clause.probability;
      out.append(p.str());
    }
    if (clause.skip_hits > 0) out.append(":skip=").append(std::to_string(clause.skip_hits));
    if (clause.max_fires > 0) out.append(":max=").append(std::to_string(clause.max_fires));
    if (clause.sleep_ms > 0) out.append(":sleep=").append(std::to_string(clause.sleep_ms));
  }
  return out;
}

StatusOr<FaultPlan> parse_plan(std::string_view text) {
  FaultPlan plan;
  for (std::string_view raw : split(text, ';')) {
    const std::string_view token = trim(raw);
    if (token.empty()) continue;
    if (starts_with(token, "seed=")) {
      if (!parse_u64_strict(token.substr(5), &plan.seed)) {
        return Status::invalid_argument("fault plan: bad seed clause '" +
                                        std::string(token) + "'");
      }
      continue;
    }
    const std::vector<std::string_view> parts = split(token, ':');
    if (parts.size() < 2) {
      return Status::invalid_argument(
          "fault plan: clause '" + std::string(token) +
          "' is not site:kind[:p=..][:skip=..][:max=..][:sleep=..]");
    }
    FaultClause clause;
    clause.site.assign(trim(parts[0]));
    const SiteInfo* site = find_site(clause.site);
    if (site == nullptr) {
      return Status::invalid_argument("fault plan: unknown site '" +
                                      clause.site + "'");
    }
    StatusOr<FaultKind> kind = parse_kind(trim(parts[1]));
    if (!kind.ok()) return kind.status();
    clause.kind = *kind;
    if (!kind_allowed_at(*site, clause.kind)) {
      return Status::invalid_argument(
          "fault plan: kind '" + std::string(kind_name(clause.kind)) +
          "' cannot be delivered at site '" + clause.site + "'");
    }
    for (std::size_t i = 2; i < parts.size(); ++i) {
      const std::string_view opt = trim(parts[i]);
      std::uint64_t u64 = 0;
      if (starts_with(opt, "p=")) {
        if (!parse_probability(opt.substr(2), &clause.probability)) {
          return Status::invalid_argument(
              "fault plan: p= wants a probability in [0, 1], got '" +
              std::string(opt) + "'");
        }
      } else if (starts_with(opt, "skip=")) {
        if (!parse_u64_strict(opt.substr(5), &clause.skip_hits)) {
          return Status::invalid_argument("fault plan: bad option '" +
                                          std::string(opt) + "'");
        }
      } else if (starts_with(opt, "max=")) {
        if (!parse_u64_strict(opt.substr(4), &clause.max_fires)) {
          return Status::invalid_argument("fault plan: bad option '" +
                                          std::string(opt) + "'");
        }
      } else if (starts_with(opt, "sleep=")) {
        if (!parse_u64_strict(opt.substr(6), &u64) || u64 > 0xffffffffull) {
          return Status::invalid_argument("fault plan: bad option '" +
                                          std::string(opt) + "'");
        }
        clause.sleep_ms = static_cast<std::uint32_t>(u64);
      } else {
        return Status::invalid_argument("fault plan: unknown option '" +
                                        std::string(opt) + "'");
      }
    }
    plan.clauses.push_back(std::move(clause));
  }
  return plan;
}

Status arm_plan(const FaultPlan& plan) {
  for (const FaultClause& clause : plan.clauses) {
    const SiteInfo* site = find_site(clause.site);
    if (site == nullptr) {
      return Status::invalid_argument("fault plan: unknown site '" +
                                      clause.site + "'");
    }
    if (!kind_allowed_at(*site, clause.kind)) {
      return Status::invalid_argument(
          "fault plan: kind '" + std::string(kind_name(clause.kind)) +
          "' cannot be delivered at site '" + clause.site + "'");
    }
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  install_locked(plan);
  return Status();
}

void arm(std::string_view site, FaultKind kind, std::uint64_t skip_hits,
         std::uint32_t sleep_ms, std::uint64_t max_fires) {
  if (kind == FaultKind::kNone) {
    disarm();
    return;
  }
  const SiteInfo* info = find_site(site);
  LC_CHECK_MSG(info != nullptr, "fault::arm: unregistered site");
  LC_CHECK_MSG(kind_allowed_at(*info, kind),
               "fault::arm: kind cannot be delivered at this site");
  FaultPlan plan;
  FaultClause clause;
  clause.site.assign(site);
  clause.kind = kind;
  clause.skip_hits = skip_hits;
  clause.sleep_ms = sleep_ms;
  clause.max_fires = max_fires;
  plan.clauses.push_back(std::move(clause));
  std::lock_guard<std::mutex> lock(g_mutex);
  install_locked(plan);
}

bool arm_from_env() {
  const char* raw = std::getenv("LC_FAULT_PLAN");
  if (raw == nullptr || raw[0] == '\0') return false;
  std::string text = raw;
  if (text[0] == '@') {
    std::ifstream file(text.substr(1), std::ios::binary);
    LC_CHECK_MSG(static_cast<bool>(file),
                 "LC_FAULT_PLAN names an unreadable plan file");
    std::ostringstream content;
    content << file.rdbuf();
    text = content.str();
  }
  StatusOr<FaultPlan> plan = parse_plan(text);
  LC_CHECK_MSG(plan.ok(), "LC_FAULT_PLAN does not parse; see parse_plan()");
  LC_CHECK_MSG(!plan->empty(), "LC_FAULT_PLAN armed no clauses");
  const Status armed = arm_plan(*plan);
  LC_CHECK_MSG(armed.ok(), "LC_FAULT_PLAN failed to arm");
  return true;
}

void disarm() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_armed.store(false, std::memory_order_release);
  clauses().clear();
  g_seed = 0;
}

bool any_armed() { return g_armed.load(std::memory_order_acquire); }

std::uint64_t fire_count() {
  return g_fired_total.load(std::memory_order_relaxed);
}

std::uint64_t fire_count(std::string_view site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::uint64_t total = 0;
  for (const ArmedClause& clause : clauses()) {
    if (clause.spec.site == site) total += clause.fired;
  }
  return total;
}

std::string active_plan() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (clauses().empty()) return "";
  FaultPlan plan;
  plan.seed = g_seed;
  for (const ArmedClause& clause : clauses()) plan.clauses.push_back(clause.spec);
  return plan.to_string();
}

void maybe_fire(const char* site) {
  if (!g_armed.load(std::memory_order_acquire)) return;
  FaultKind kind = FaultKind::kNone;
  std::uint32_t sleep_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (ArmedClause& clause : clauses()) {
      if (clause.spec.site != site) continue;
      if (clause.spec.kind != FaultKind::kThrow &&
          clause.spec.kind != FaultKind::kBadAlloc &&
          clause.spec.kind != FaultKind::kSleep) {
        continue;  // I/O kinds are delivered by consume_io, not here
      }
      if (!clause_fires(clause)) continue;
      kind = clause.spec.kind;
      sleep_ms = clause.spec.sleep_ms;
      break;
    }
  }
  switch (kind) {
    case FaultKind::kThrow:
      throw std::runtime_error(std::string("injected fault at ") + site);
    case FaultKind::kBadAlloc:
      throw std::bad_alloc{};
    case FaultKind::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      return;
    default:
      return;
  }
}

FaultKind consume_io(const char* site, std::uint64_t* draw) {
  if (!g_armed.load(std::memory_order_acquire)) return FaultKind::kNone;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (ArmedClause& clause : clauses()) {
    if (clause.spec.site != site) continue;
    if (clause.spec.kind == FaultKind::kThrow ||
        clause.spec.kind == FaultKind::kBadAlloc ||
        clause.spec.kind == FaultKind::kSleep) {
      continue;
    }
    if (!clause_fires(clause)) continue;
    if (draw != nullptr) *draw = clause.rng.next_u64();
    return clause.spec.kind;
  }
  return FaultKind::kNone;
}

}  // namespace lc::fault
