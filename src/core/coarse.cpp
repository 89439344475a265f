#include "core/coarse.hpp"

#include <algorithm>
#include <cmath>

#include "core/dsu.hpp"
#include "core/forest.hpp"
#include "core/sweep_source.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"

namespace lc::core {
namespace {

/// Metadata of the safe epoch state Q* = (beta, Delta, p, C) of §V-A. Delta
/// is represented by xi directly (the pair position reached). The C component
/// is *implicit*: the live parent array IS the safe state whenever the sweep
/// sits at an epoch boundary, because a rejected chunk is unwound by undoing
/// its merge journal — no copy of C is ever kept.
struct SafeState {
  std::size_t beta = 0;
  std::uint64_t xi = 0;
  std::size_t p = 0;
};

struct ChunkPair {
  EdgeIdx a, b;
};

/// A saved too-aggressive state on L_rollback, as a compact journal instead
/// of an O(|E|) C snapshot: `edges` holds one (loser, target-root) union per
/// cluster the chunk removed, sorted by loser. Replaying those unions on top
/// of ANY later accepted state between the save's base and its position
/// restores exactly the saved partition: accepted states refine the saved
/// one (pair processing is prefix-monotone), and every sub-root that must
/// disappear is one of the saved losers, wired to its component minimum.
struct SavedState {
  std::vector<ChunkPair> edges;
  std::size_t beta = 0;
  std::uint64_t xi = 0;
  std::size_t p = 0;
  std::uint64_t seq = 0;           ///< insertion age (eviction order)
  std::uint64_t charged_bytes = 0; ///< released on evict / reuse / return
};

/// Chunk-size estimate for a rollback (Fig. 3): extrapolate with the steeper
/// of (a) the slope through the failed reference point and (b) the slope
/// through the previous two levels, toward the target cluster count
/// beta / gamma_tilde. The steeper slope always undershoots.
double rollback_estimate(std::uint64_t xi_prev2, std::size_t beta_prev2, bool have_prev2,
                         std::uint64_t xi_last, std::size_t beta_last,
                         std::uint64_t xi_failed, std::size_t beta_failed, double gamma) {
  const double gamma_tilde = (1.0 + gamma) / 2.0;
  const double beta_l = static_cast<double>(beta_last);
  const double target = beta_l / gamma_tilde;
  double steeper = 0.0;
  bool have_slope = false;
  if (xi_failed > xi_last) {
    const double slope = (static_cast<double>(beta_failed) - beta_l) /
                         static_cast<double>(xi_failed - xi_last);
    if (slope < 0.0) {
      steeper = slope;
      have_slope = true;
    }
  }
  if (have_prev2 && xi_last > xi_prev2) {
    const double slope = (beta_l - static_cast<double>(beta_prev2)) /
                         static_cast<double>(xi_last - xi_prev2);
    if (slope < 0.0 && (!have_slope || slope < steeper)) {
      steeper = slope;
      have_slope = true;
    }
  }
  if (!have_slope) {
    // No decreasing slope observed: fall back to half the failed chunk.
    return std::max(1.0, static_cast<double>(xi_failed - xi_last) / 2.0);
  }
  return std::max(1.0, (target - beta_l) / steeper);
}

/// A forest pair's key (score, u, v), comparable with L's entries by
/// score_order.
SimilarityEntry key_of(const ForestPair& pair) { return {pair.u, pair.v, pair.score, 0, 0}; }

}  // namespace

namespace detail {

CoarseResult run_coarse(const graph::WeightedGraph& graph, BucketSweepSource& source,
                        const EdgeIndex& index, std::uint64_t pairs_total,
                        const ChunkPairs& chunk_pairs, const CoarseOptions& options,
                        sim::WorkLedger* ledger, lc::RunContext* ctx) {
  LC_CHECK_MSG(index.size() == graph.edge_count(), "edge index must match the graph");
  LC_CHECK_MSG(options.gamma >= 1.0, "gamma must be >= 1");
  LC_CHECK_MSG(options.delta0 >= 1, "initial chunk size must be positive");
  LC_CHECK_MSG(options.eta0 > 1.0, "head growth factor must exceed 1");

  const std::size_t edge_count = graph.edge_count();
  const std::size_t entry_count = source.size();

  CoarseResult result;
  result.dendrogram = Dendrogram(edge_count);
  result.pairs_total = pairs_total;

  // The one cluster structure, sized O(|E|) for the whole sweep.
  MinDsu dsu(edge_count);
  MemoryCharge parent_charge(
      ctx, static_cast<std::uint64_t>(edge_count) * sizeof(EdgeIdx), "coarse.parent");

  std::uint64_t xi = 0;
  std::size_t p = 0;
  std::size_t beta = edge_count;
  std::uint32_t level = 0;
  double delta = static_cast<double>(options.delta0);
  double eta = options.eta0;
  bool head_mode = true;
  std::size_t consecutive_rollbacks = 0;

  SafeState safe{beta, xi, p};
  // Previous accepted level before `safe`, for two-level slope extrapolation.
  std::uint64_t xi_prev2 = 0;
  std::size_t beta_prev2 = 0;
  bool have_prev2 = false;

  std::vector<SavedState> rollback_list;
  std::uint64_t snapshot_seq = 0;

  // Journal of the chunk currently applied (or of a reuse replay): every
  // find and unite between two boundaries writes to it, so undo() rewinds
  // the array exactly. The dendrogram events and the compact reuse snapshot
  // are read from it; no O(|E|) scan or copy.
  MinDsu::Journal chunk_journal;

  // Instrumentation totals (Theorem 2 metrics, defined in core/forest.hpp):
  // derived from each chunk's pair count and union count only, never from
  // the DSU's path-compression writes. Work later undone by a rollback is
  // included, as the paper's cost analysis does. The ledger charges the same
  // traffic, all serial: 2 units per applied pair, 1 per union at the epoch
  // boundary, and 1 per union a rollback rewinds. Its sweep.coarse phase
  // therefore totals c_accesses plus the rolled-back unions.
  std::uint64_t total_accesses = 0;
  std::uint64_t total_changes = 0;
  auto count_c_traffic = [&](std::size_t pairs, std::size_t unions) {
    total_accesses += 2 * static_cast<std::uint64_t>(pairs) + unions;
    total_changes += unions;
  };

  auto release_saved = [&](SavedState& saved) {
    if (ctx != nullptr && saved.charged_bytes > 0) {
      ctx->release_memory(saved.charged_bytes);
      saved.charged_bytes = 0;
    }
  };

  if (ledger != nullptr) ledger->begin_phase("sweep.coarse");

  // Unites the pairs of L positions [first, last) into the DSU, serially,
  // filling chunk_journal. Returns the number of pairs applied.
  auto apply_chunk = [&](std::size_t first, std::size_t last) {
    chunk_journal.clear();
    fault::maybe_fire("coarse.apply");
    PollTicker ticker(ctx);
    std::uint64_t pairs = 0;
    chunk_pairs(first, last, [&](EdgeIdx a, EdgeIdx b) {
      ticker.checkpoint();
      dsu.unite(a, b, chunk_journal);
      ++pairs;
    });
    result.stats.pairs_processed += pairs;
    if (ledger != nullptr) ledger->add_serial(2 * pairs);
    fault::maybe_fire("coarse.journal");
    return pairs;
  };

  // Emits the dendrogram events of an accepted level from the journal: every
  // union loser was a root of the pre-chunk state that stopped being one; it
  // merged into its component minimum. Ascending loser order matches the
  // ascending-index scan the full-array diff used to produce.
  auto emit_level_events = [&](double score) {
    for (const EdgeIdx loser : journal_losers_sorted(chunk_journal)) {
      result.dendrogram.add_event(level, loser, dsu.find(loser, chunk_journal), score);
    }
  };

  auto accept_level = [&](std::size_t beta_new, double score, EpochKind kind,
                          std::uint64_t chunk_used) {
    ++level;
    emit_level_events(score);
    result.epochs.push_back(EpochRecord{kind, chunk_used, beta, beta_new, xi});
    result.levels.push_back(CoarseLevel{level, beta_new, xi, score});
    xi_prev2 = safe.xi;
    beta_prev2 = safe.beta;
    have_prev2 = true;
    beta = beta_new;
    safe = SafeState{beta, xi, p};
    consecutive_rollbacks = 0;
  };

  while (p < entry_count && beta > options.phi) {
    check_stop(ctx);
    fault::maybe_fire("coarse.chunk");
    // ---- Collect and process one chunk. At least one entry always enters
    // the chunk so the sweep makes progress even when delta < |l|.
    const std::uint64_t target_end =
        xi + std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(delta)));
    const std::uint64_t chunk_start = xi;
    const std::size_t chunk_first = p;
    double last_score = source.at(p).score;
    std::size_t entries_consumed = 0;
    PollTicker collect_ticker(ctx);
    while (p < entry_count) {
      // at() materializes lazily; rollbacks and reuse jumps only revisit
      // positions at or below the high-water mark, so a lazy source never
      // re-sorts — and everything past the phi stop stays unsorted forever.
      const SimilarityEntry& entry = source.at(p);
      const std::uint64_t l = entry.count;
      if (entries_consumed > 0 && xi + l >= target_end) break;
      collect_ticker.checkpoint(1);
      xi += l;
      ++p;
      ++entries_consumed;
      last_score = entry.score;
    }
    const std::uint64_t pairs = apply_chunk(chunk_first, p);
    // The chunk's transient footprint is its journal — O(changes), not
    // O(|E|); the high-water model charges each chunk afresh.
    MemoryCharge journal_charge(
        ctx,
        static_cast<std::uint64_t>(chunk_journal.size()) * sizeof(MinDsu::JournalEntry),
        "coarse.journal");

    // ---- Epoch boundary: the DSU counts its sets, replacing the paper's
    // O(|E|) scan; each union removed one.
    const std::size_t beta_new = dsu.set_count();
    const std::size_t unions = beta - beta_new;
    count_c_traffic(pairs, unions);
    if (ledger != nullptr) ledger->add_serial(unions);
    const std::uint64_t chunk_used = xi - chunk_start;

    const bool c2_ok =
        static_cast<double>(beta) <= options.gamma * static_cast<double>(beta_new);
    const bool can_retry = entries_consumed > 1 &&
                           consecutive_rollbacks < options.max_rollbacks_per_level;

    if (!c2_ok && can_retry) {
      // ---- Case II: rollback. Save the too-aggressive state for reuse as a
      // compact journal — one (loser, target-root) union per removed cluster
      // (capacity 0 disables saving entirely — the reuse ablation).
      if (options.rollback_capacity > 0) {
        if (rollback_list.size() >= options.rollback_capacity) {
          // Evict the oldest (minimum seq) in O(1) moves: swap to the back
          // and pop — the selection scans below never depend on list order.
          std::size_t oldest = 0;
          for (std::size_t s = 1; s < rollback_list.size(); ++s) {
            if (rollback_list[s].seq < rollback_list[oldest].seq) oldest = s;
          }
          release_saved(rollback_list[oldest]);
          std::swap(rollback_list[oldest], rollback_list.back());
          rollback_list.pop_back();
        }
        SavedState saved;
        saved.beta = beta_new;
        saved.xi = xi;
        saved.p = p;
        saved.seq = snapshot_seq++;
        saved.edges.reserve(unions);
        for (const EdgeIdx loser : journal_losers_sorted(chunk_journal)) {
          saved.edges.push_back(ChunkPair{loser, dsu.find(loser, chunk_journal)});
        }
        if (ctx != nullptr) {
          fault::maybe_fire("coarse.snapshot");
          saved.charged_bytes =
              static_cast<std::uint64_t>(saved.edges.size()) * sizeof(ChunkPair);
          ctx->charge_memory(saved.charged_bytes, "coarse.rollback_snapshot");
        }
        rollback_list.push_back(std::move(saved));
      }
      result.epochs.push_back(
          EpochRecord{EpochKind::kRollback, chunk_used, beta, beta_new, xi});
      ++result.rollback_count;

      double estimate = rollback_estimate(xi_prev2, beta_prev2, have_prev2, safe.xi,
                                          safe.beta, xi, beta_new, options.gamma);
      if (consecutive_rollbacks > 0) estimate = std::min(estimate, delta / 2.0);
      if (head_mode) eta = 1.0 + (eta - 1.0) / 2.0;  // head -> rollback damping

      // O(changes) unwind to Q*: rewind every journaled write instead of
      // restoring an O(|E|) snapshot. The next chunk starts at safe.p again.
      dsu.undo(chunk_journal);
      if (ledger != nullptr) ledger->add_serial(unions);
      xi = safe.xi;
      p = safe.p;
      delta = std::max(1.0, estimate);
      ++consecutive_rollbacks;
      continue;
    }

    // ---- Case I: accept the level.
    if (!c2_ok) ++result.soundness_violations;  // unsplittable entry or guard hit
    accept_level(beta_new, last_score,
                 head_mode ? EpochKind::kHeadFresh : EpochKind::kTailFresh, chunk_used);
    if (beta <= options.phi) break;

    // ---- Reuse: jump to the saved future state with the fewest clusters
    // that still satisfies the soundness ratio (ties: oldest save, matching
    // the insertion-ordered list this replaced).
    while (beta > options.phi) {
      std::size_t best = rollback_list.size();
      for (std::size_t s = 0; s < rollback_list.size(); ++s) {
        const SavedState& snap = rollback_list[s];
        if (snap.beta < beta &&
            static_cast<double>(beta) <= options.gamma * static_cast<double>(snap.beta)) {
          if (best == rollback_list.size() || snap.beta < rollback_list[best].beta ||
              (snap.beta == rollback_list[best].beta &&
               snap.seq < rollback_list[best].seq)) {
            best = s;
          }
        }
      }
      if (best == rollback_list.size()) break;
      SavedState jump = std::move(rollback_list[best]);
      std::swap(rollback_list[best], rollback_list.back());
      rollback_list.pop_back();
      release_saved(jump);
      // Replay the compact journal on the live array: the current accepted
      // state refines the saved one, so re-uniting each saved loser with its
      // target root lands exactly on the saved partition.
      chunk_journal.clear();
      {
        fault::maybe_fire("coarse.journal");
        PollTicker ticker(ctx);
        for (const ChunkPair& edge : jump.edges) {
          ticker.checkpoint();
          dsu.unite(edge.a, edge.b, chunk_journal);
        }
        const std::size_t replayed = beta - dsu.set_count();
        count_c_traffic(jump.edges.size(), replayed);
        if (ledger != nullptr) {
          ledger->add_serial(2 * static_cast<std::uint64_t>(jump.edges.size()) + replayed);
        }
      }
      LC_DCHECK(dsu.set_count() == jump.beta);
      const std::uint64_t chunk_jump = jump.xi - xi;
      xi = jump.xi;
      p = jump.p;
      const double score =
          (p > 0 && p <= entry_count) ? source.at(p - 1).score : 0.0;
      accept_level(jump.beta, score, EpochKind::kReused, chunk_jump);
      ++result.reuse_count;
    }

    // ---- Mode and next chunk size.
    head_mode = beta > edge_count / 2;  // C1: head while clusters > |E|/2
    if (head_mode) {
      delta *= eta;
    } else {
      // Tail estimation: prefer the closest saved future state (Eq. 6) as the
      // reference point; otherwise extrapolate from the previous two levels.
      const double gamma_tilde = (1.0 + options.gamma) / 2.0;
      const double target = static_cast<double>(beta) / gamma_tilde;
      double steeper = 0.0;
      bool have_slope = false;
      std::size_t ref = rollback_list.size();
      for (std::size_t s = 0; s < rollback_list.size(); ++s) {
        if (rollback_list[s].beta < beta &&
            (ref == rollback_list.size() ||
             rollback_list[s].beta > rollback_list[ref].beta ||
             (rollback_list[s].beta == rollback_list[ref].beta &&
              rollback_list[s].seq < rollback_list[ref].seq))) {
          ref = s;
        }
      }
      if (ref != rollback_list.size() && rollback_list[ref].xi > xi) {
        const double slope =
            (static_cast<double>(rollback_list[ref].beta) - static_cast<double>(beta)) /
            static_cast<double>(rollback_list[ref].xi - xi);
        if (slope < 0.0) {
          steeper = slope;
          have_slope = true;
        }
      }
      if (have_prev2 && xi > xi_prev2) {
        const double slope =
            (static_cast<double>(beta) - static_cast<double>(beta_prev2)) /
            static_cast<double>(xi - xi_prev2);
        if (slope < 0.0 && (!have_slope || slope < steeper)) {
          steeper = slope;
          have_slope = true;
        }
      }
      if (have_slope) {
        delta = std::max(1.0, (target - static_cast<double>(beta)) / steeper);
      }
      // else: keep the current delta (no decreasing trend to extrapolate).
    }
  }

  for (SavedState& saved : rollback_list) release_saved(saved);

  result.final_labels = dsu.labels();
  result.stats.c_accesses = total_accesses;
  result.stats.c_changes = total_changes;
  result.stats.merges_effective = result.dendrogram.events().size();
  result.pairs_processed = xi;

  // Root of the dendrogram: remaining clusters merge into a single one at
  // the level above the last (the paper's C3 semantics). final_labels keep
  // the pre-root clustering.
  const std::vector<EdgeIdx> last_labels = result.final_labels;
  EdgeIdx global_min = 0;
  bool any = false;
  for (std::size_t i = 0; i < last_labels.size(); ++i) {
    if (last_labels[i] == i) {
      global_min = static_cast<EdgeIdx>(i);
      any = true;
      break;
    }
  }
  if (any) {
    ++level;
    for (std::size_t i = global_min + 1; i < last_labels.size(); ++i) {
      if (last_labels[i] == i) {
        result.dendrogram.add_event(level, static_cast<EdgeIdx>(i), global_min, 0.0);
      }
    }
  }
  return result;
}

}  // namespace detail

CoarseResult coarse_sweep(const graph::WeightedGraph& graph, const SpanningForest& forest,
                          BucketSweepSource& source, const EdgeIndex& index,
                          const CoarseOptions& options, sim::WorkLedger* ledger,
                          lc::RunContext* ctx) {
  // The forest pairs whose key falls inside the chunk: sweep_order extends
  // score_order, so they are one slice of forest.pairs, read at a cursor f
  // at the first pair whose key is not before L[next]. When a rollback or a
  // reuse jump moves p, f is found again by binary search.
  const auto& pairs = forest.pairs;
  std::size_t f = 0;
  std::size_t next = 0;
  const auto chunk_pairs = [&](std::size_t first, std::size_t last,
                               const detail::UnitePair& visit) {
    if (first != next) {
      const SimilarityEntry& start = source.at(first);
      const auto before = [&start](const ForestPair& pair) {
        return score_order(key_of(pair), start);
      };
      f = static_cast<std::size_t>(
          std::partition_point(pairs.begin(), pairs.end(), before) - pairs.begin());
    }
    const SimilarityEntry& end = source.at(last - 1);
    for (; f < pairs.size() && !score_order(end, key_of(pairs[f])); ++f) {
      visit(index.index_of(pairs[f].first), index.index_of(pairs[f].second));
    }
    next = last;
  };
  return detail::run_coarse(graph, source, index, forest.incident_pairs, chunk_pairs, options,
                            ledger, ctx);
}

}  // namespace lc::core
