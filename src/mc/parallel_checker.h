// Multi-core explicit-state reachability engine.
//
// Implements the same level-synchronized BFS semantics as the serial
// Checker (mc/checker.h), with every depth level split into contiguous
// frontier chunks expanded concurrently over a util::ThreadPool and the
// visited set held in a shared lock-free table (LTSmin-style). Because a
// level is always completed before a verdict is reported, and because the
// set of states at depth d is a property of the state graph alone, the
// engine reproduces the serial checker's results exactly — same verdicts,
// same states_explored / transitions / max_depth, and counterexamples of
// identical (minimal) length — for any thread count. Only the *content* of
// a counterexample may differ when several distinct violations exist at
// the minimal depth. See docs/CHECKER.md for the argument.
//
// Like the serial engine, the visited table is a storage policy (TableT):
// the flat util::ConcurrentStateTable or the quotienting
// util::CompactStateTable, selected via CheckOptions / svc::JobSpec. The
// table stores one 12-byte detail::BfsNode per state inline next to the
// (full or quotiented) key, so counterexample reconstruction walks slot
// indices instead of hashing packed states. Capacity grows by rebuilding
// at level barriers, where exactly one thread is active; if a level
// overflows the table mid-flight, the partially inserted level is dropped
// during the rebuild and the level is re-expanded (insert-if-absent makes
// the retry idempotent; the re-expansion's hashes are surfaced in
// CheckStats::hash_recomputes).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mc/checker.h"
#include "util/concurrent_state_table.h"
#include "util/thread_pool.h"

namespace tta::mc {

template <class Model,
          template <class> class TableT = util::ConcurrentStateTable>
class ParallelChecker {
 public:
  using State = typename Model::State;
  using Violation = std::function<bool(const State&, const State&)>;
  using Goal = std::function<bool(const State&)>;

  /// `num_threads` == 0 picks the hardware concurrency.
  explicit ParallelChecker(const Model& model, unsigned num_threads = 0,
                           std::size_t initial_capacity = 1u << 16)
      : model_(&model),
        pool_(num_threads),
        initial_capacity_(initial_capacity) {}

  unsigned num_threads() const { return pool_.size(); }

  /// Test hook: states of headroom the proactive growth budgets per
  /// frontier state. 0 disables proactive growth so a growing level must
  /// take the mid-level overflow + retry path.
  void set_growth_headroom(std::size_t per_frontier_state) {
    growth_headroom_ = per_frontier_state;
  }

  /// Exhaustive safety check; see Checker::check. `checkpoint` makes the
  /// search resumable across restarts (mc/checkpoint.h); parent slot
  /// indices are converted to packed keys on save and rebuilt on load, so
  /// a serial-written checkpoint even resumes under this engine — and a
  /// flat-table checkpoint under a compact table — and vice versa: the
  /// wavefront is engine- and backend-agnostic.
  CheckResultT<State> check(const Violation& violation,
                            std::uint64_t max_states = 50'000'000,
                            const util::CancelToken* cancel = nullptr,
                            const CheckpointConfig* checkpoint =
                                nullptr) const {
    Table table(initial_capacity_, detail::packed_key_bits(*model_));
    return run(table, &violation, nullptr, max_states, cancel, checkpoint);
  }

  /// Shortest witness to a goal state; see Checker::find_state.
  CheckResultT<State> find_state(const Goal& goal,
                                 std::uint64_t max_states = 50'000'000,
                                 const util::CancelToken* cancel = nullptr,
                                 const CheckpointConfig* checkpoint =
                                     nullptr) const {
    Table table(initial_capacity_, detail::packed_key_bits(*model_));
    return run(table, nullptr, &goal, max_states, cancel, checkpoint);
  }

  /// AG EF goal; see Checker::check_recoverability. The forward pass runs
  /// on the thread pool; detail::close_recoverability is the same serial
  /// backward closure the serial engine uses.
  RecoverabilityResultT<State> check_recoverability(
      const Goal& goal, std::uint64_t max_states = 10'000'000,
      const util::CancelToken* cancel = nullptr) const {
    const auto t0 = std::chrono::steady_clock::now();
    RecoverabilityResultT<State> result;
    Table table(initial_capacity_, detail::packed_key_bits(*model_));
    detail::BfsGraph graph;
    result.stats = run(table, nullptr, nullptr, max_states, cancel, nullptr,
                       &graph, &goal)
                       .stats;
    detail::close_recoverability(*model_, table, graph, &result);
    result.stats.seconds = seconds_since(t0);
    return result;
  }

 private:
  using NodeInfo = detail::BfsNode;
  using Table = TableT<NodeInfo>;

  /// Direct-mapped cache of recently inserted successors, valid within one
  /// level expansion of one chunk (slot indices are stable between level
  /// barriers). An empty entry is marked by kNoSlot, which a successful
  /// insert can never return. Indexed by the caller's memoized raw hash,
  /// so a cache probe never re-hashes the key.
  struct DedupCache {
    static constexpr std::size_t kSize = 1u << 12;

    std::vector<util::PackedState> keys =
        std::vector<util::PackedState>(kSize);
    std::vector<std::uint32_t> slots =
        std::vector<std::uint32_t>(kSize, Table::kNoSlot);

    void reset() {
      std::fill(slots.begin(), slots.end(), Table::kNoSlot);
    }
    std::uint32_t lookup(const util::PackedState& key,
                         std::size_t raw_hash) const {
      const std::size_t h = raw_hash & (kSize - 1);
      return slots[h] != Table::kNoSlot && keys[h] == key ? slots[h]
                                                          : Table::kNoSlot;
    }
    void remember(const util::PackedState& key, std::size_t raw_hash,
                  std::uint32_t slot) {
      const std::size_t h = raw_hash & (kSize - 1);
      keys[h] = key;
      slots[h] = slot;
    }
  };

  /// First hit within a task's chunk, ordered by (frontier index,
  /// successor index); chunks are contiguous, so the per-task first hit is
  /// the per-task minimum and the cross-task minimum is the level minimum.
  struct Hit {
    std::uint64_t frontier_index = UINT64_MAX;
    std::uint32_t slot = Table::kNoSlot;  ///< violating state / goal state
    std::uint32_t choice = 0;             ///< violating transition's choice
  };

  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  /// Grows `table` (detail::grow_table rewrites the parent links), then
  /// rewrites the slot references only this engine holds: the current
  /// frontier and (for recoverability) the recorded graph.
  /// Single-threaded; called only at level barriers.
  template <class Drop>
  static void grow(Table& table, std::size_t needed,
                   std::vector<std::uint32_t>& level, detail::BfsGraph* graph,
                   Drop&& drop) {
    std::vector<std::uint32_t> remap =
        detail::grow_table(table, needed, std::forward<Drop>(drop));
    for (std::uint32_t& s : level) s = remap[s];
    if (graph) graph->remap(remap);
  }

  CheckResultT<State> run(Table& table, const Violation* violation,
                          const Goal* goal, std::uint64_t max_states,
                          const util::CancelToken* cancel,
                          const CheckpointConfig* checkpoint,
                          detail::BfsGraph* graph = nullptr,
                          const Goal* tag_goal = nullptr) const {
    const auto t0 = std::chrono::steady_clock::now();
    CheckResultT<State> result;

    // With `graph` set (check_recoverability), the pass records every
    // transition into it and tags the states satisfying `tag_goal`. The
    // checkpoint format does not carry the edge list, so that mode never
    // checkpoints.
    const CheckpointConfig* ckpt = graph ? nullptr : checkpoint;
    const CheckpointData::Mode ckpt_mode =
        violation ? CheckpointData::Mode::kSafetyCheck
                  : CheckpointData::Mode::kFindState;

    auto finish = [&](Verdict verdict) {
      result.verdict = verdict;
      result.stats.states_explored = table.size();
      detail::fill_table_stats(table, &result.stats);
      result.stats.seconds = seconds_since(t0);
    };

    std::vector<std::uint32_t> level;
    std::uint32_t start_depth = 0;
    if (ckpt) {
      detail::restore_wavefront(*ckpt, ckpt_mode, table, &level,
                                &start_depth, &result.stats,
                                growth_headroom_);
    }
    if (!result.stats.resumed) {
      State init = model_->initial();
      NodeInfo root{0, 0, 0, detail::kBfsRootFlag};
      if (tag_goal && (*tag_goal)(init)) root.flags |= detail::kBfsGoalFlag;
      typename Table::Insert ins = table.insert(model_->pack(init), root);
      TTA_CHECK(ins.inserted);
      level.push_back(ins.slot);
      if (goal && (*goal)(init)) {
        finish(Verdict::kViolated);
        return result;  // goal reachable at depth 0, empty witness
      }
    }

    const unsigned tasks = pool_.size();
    // Per-chunk, per-level successor dedup: a direct-mapped cache of the
    // most recent packed successors this chunk inserted during the current
    // level, mapping to their table slots. Many choice combinations of one
    // frontier state collapse to the same next state, so skipping the
    // table's CAS + probe for those repeats cuts shared-table traffic
    // without changing any observable result: a cache hit implies the
    // state is already in the table (inserted == false), and the cached
    // slot keeps recoverability edge recording exact. Slots are stable
    // within a level (the table only rebuilds at level barriers), and the
    // cache is reset whenever a chunk starts a level.
    std::vector<DedupCache> dedup(tasks);
    bool was_cancelled = false;
    // Set when a level overflowed and is being re-expanded; the successful
    // pass re-hashes every successor the dropped pass already hashed, and
    // that cost is surfaced in hash_recomputes when the retry completes.
    bool retried_level = false;
    for (std::uint32_t depth = start_depth;; ++depth) {
      if (table.size() > max_states) {
        result.stats.exhausted = false;
        break;
      }
      if (cancel && cancel->cancelled_now()) {
        was_cancelled = true;
        break;
      }
      TTA_CHECK(depth < UINT16_MAX);  // BfsNode stores depth as u16
      result.stats.max_depth = depth;
      // Proactive growth: leave headroom for a level that discovers up to
      // growth_headroom_ (~4) new states per frontier state, generous for
      // this model family. A level that still outgrows the table aborts
      // and retries below.
      const std::size_t headroom =
          table.size() + growth_headroom_ * level.size();
      if (headroom >= table.max_load()) {
        grow(table, headroom, level, graph, detail::KeepAll{});
      }

      std::vector<std::vector<std::uint32_t>> next(tasks);
      // Recoverability: each chunk's edge targets, and the end offset of
      // each of its rows within them.
      std::vector<std::vector<std::uint32_t>> new_targets(tasks);
      std::vector<std::vector<std::uint32_t>> new_row_ends(tasks);
      std::vector<std::uint64_t> transitions(tasks, 0);
      std::vector<std::uint64_t> dedup_skips(tasks, 0);
      std::vector<Hit> violation_hit(tasks);
      std::vector<Hit> goal_hit(tasks);
      std::atomic<bool> overflow{false};
      std::atomic<bool> cancelled_mid_level{false};

      pool_.parallel_for(
          level.size(),
          [&](unsigned chunk, std::size_t begin, std::size_t end) {
            // Work on chunk-local state; publish into the index-addressed
            // output slots once at the end (avoids false sharing on the
            // hot transition counter).
            std::vector<std::uint32_t> my_next;
            std::vector<std::uint32_t> my_targets;
            std::vector<std::uint32_t> my_row_ends;
            std::uint64_t my_transitions = 0;
            std::uint64_t my_dedup_skips = 0;
            Hit my_violation, my_goal;
            DedupCache& dd = dedup[chunk];
            dd.reset();
            for (std::size_t i = begin; i < end; ++i) {
              if (overflow.load(std::memory_order_relaxed)) break;
              if (cancel && cancel->cancelled()) {
                cancelled_mid_level.store(true, std::memory_order_relaxed);
                break;
              }
              const std::uint32_t cur_slot = level[i];
              State cur = model_->unpack(table.key_at(cur_slot));
              for (const auto& succ : model_->successors(cur)) {
                ++my_transitions;
                if (violation && my_violation.slot == Table::kNoSlot &&
                    (*violation)(cur, succ.next)) {
                  my_violation = Hit{i, cur_slot, succ.choice_code};
                }
                util::PackedState packed = model_->pack(succ.next);
                // Hash once per successor; the token feeds the dedup
                // cache's index and the table's probe sequence.
                const typename Table::Hashed hashed = table.hash(packed);
                if (std::uint32_t cached = dd.lookup(packed, hashed.raw());
                    cached != Table::kNoSlot) {
                  // Dedup hit: this chunk already inserted `packed` during
                  // this level, so the insert would report inserted ==
                  // false and return the cached slot — skip it entirely.
                  ++my_dedup_skips;
                  if (graph) my_targets.push_back(cached);
                  continue;
                }
                NodeInfo info{cur_slot, succ.choice_code,
                              static_cast<std::uint16_t>(depth + 1), 0};
                if (tag_goal && (*tag_goal)(succ.next)) {
                  info.flags |= detail::kBfsGoalFlag;
                }
                typename Table::Insert r = table.insert(packed, info, hashed);
                if (r.slot == Table::kNoSlot) {
                  overflow.store(true, std::memory_order_relaxed);
                  break;
                }
                dd.remember(packed, hashed.raw(), r.slot);
                if (graph) my_targets.push_back(r.slot);
                if (r.inserted) {
                  my_next.push_back(r.slot);
                  if (goal && my_goal.slot == Table::kNoSlot &&
                      (*goal)(succ.next)) {
                    my_goal = Hit{i, r.slot, 0};
                  }
                }
              }
              if (overflow.load(std::memory_order_relaxed)) break;
              if (graph) {
                my_row_ends.push_back(
                    static_cast<std::uint32_t>(my_targets.size()));
              }
            }
            next[chunk] = std::move(my_next);
            new_targets[chunk] = std::move(my_targets);
            new_row_ends[chunk] = std::move(my_row_ends);
            transitions[chunk] = my_transitions;
            dedup_skips[chunk] = my_dedup_skips;
            violation_hit[chunk] = my_violation;
            goal_hit[chunk] = my_goal;
          });

      if (cancelled_mid_level.load(std::memory_order_relaxed)) {
        // The level is half-expanded: neither a verdict nor a minimal
        // counterexample can be reported. Bail out with partial stats.
        for (unsigned c = 0; c < tasks; ++c) {
          result.stats.transitions += transitions[c];
          result.stats.dedup_skips += dedup_skips[c];
        }
        was_cancelled = true;
        break;
      }

      if (overflow.load(std::memory_order_relaxed)) {
        // The level half-finished: drop its partial discoveries, grow, and
        // re-expand the same level from scratch. Dropped entries all have
        // depth == depth + 1, so no surviving parent link can point at
        // them.
        const std::uint16_t dropped_depth =
            static_cast<std::uint16_t>(depth + 1);
        grow(table, table.size() * 2, level, graph,
             [dropped_depth](const NodeInfo& info) {
               return info.depth == dropped_depth;
             });
        retried_level = true;
        --depth;  // redo this level
        continue;
      }

      for (unsigned c = 0; c < tasks; ++c) {
        result.stats.transitions += transitions[c];
        result.stats.dedup_skips += dedup_skips[c];
      }
      if (retried_level) {
        // Every successor of this level was hashed at least twice: once in
        // the pass that overflowed and again in this completed one.
        for (unsigned c = 0; c < tasks; ++c) {
          result.stats.hash_recomputes += transitions[c];
        }
        retried_level = false;
      }

      if (violation) {
        Hit best;
        for (const Hit& h : violation_hit) {
          if (h.frontier_index < best.frontier_index) best = h;
        }
        if (best.slot != Table::kNoSlot) {
          // Counterexample: path to the violating state plus the violating
          // transition itself. Minimal depth is guaranteed because every
          // earlier level completed without a hit.
          std::vector<TraceStepT<State>> steps =
              detail::reconstruct_trace(*model_, table, best.slot);
          TraceStepT<State> final_step;
          final_step.before = model_->unpack(table.key_at(best.slot));
          auto [nxt, label] = model_->apply(final_step.before, best.choice);
          final_step.label = label;
          final_step.after = nxt;
          steps.push_back(final_step);
          result.trace = std::move(steps);
          finish(Verdict::kViolated);
          return result;
        }
      }
      if (goal) {
        Hit best;
        for (const Hit& h : goal_hit) {
          if (h.frontier_index < best.frontier_index) best = h;
        }
        if (best.slot != Table::kNoSlot) {
          result.trace = detail::reconstruct_trace(*model_, table,
                                                   best.slot);
          finish(Verdict::kViolated);
          return result;
        }
      }

      std::size_t total = 0;
      for (const auto& chunk : next) total += chunk.size();
      if (graph) {
        // Chunks are contiguous frontier ranges, so concatenating them in
        // chunk order appends this level's rows in frontier order.
        graph->rows.insert(graph->rows.end(), level.begin(), level.end());
        for (unsigned c = 0; c < tasks; ++c) {
          const std::size_t base = graph->targets.size();
          TTA_CHECK(base + new_targets[c].size() < UINT32_MAX);
          for (std::uint32_t end : new_row_ends[c]) {
            graph->offsets.push_back(static_cast<std::uint32_t>(base + end));
          }
          graph->targets.insert(graph->targets.end(), new_targets[c].begin(),
                                new_targets[c].end());
        }
      }
      if (total == 0) break;
      std::vector<std::uint32_t> next_level;
      next_level.reserve(total);
      for (const auto& chunk : next) {
        next_level.insert(next_level.end(), chunk.begin(), chunk.end());
      }
      level = std::move(next_level);
      // Level barrier (single-threaded here): persist the wavefront so an
      // interrupted run resumes instead of re-exploring. Best-effort.
      if (ckpt && (depth + 1) % std::max(1u, ckpt->every_levels) == 0) {
        save_checkpoint(*ckpt,
                        detail::snapshot_wavefront(table, level, depth + 1,
                                                   result.stats, ckpt_mode));
      }
    }

    if (was_cancelled) {
      result.stats.exhausted = false;
      result.stats.cancelled = true;
    }
    finish(result.stats.exhausted ? Verdict::kHolds
                                  : Verdict::kInconclusive);
    return result;
  }

  const Model* model_;
  mutable util::ThreadPool pool_;
  std::size_t initial_capacity_;
  std::size_t growth_headroom_ = 4;
};

}  // namespace tta::mc
