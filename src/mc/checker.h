// Explicit-state breadth-first model checker.
//
// Substitutes for the paper's use of Cadence SMV: the model is finite, so
// exhaustive BFS gives the same verdicts, and because BFS explores in
// distance order the first violation found yields a *shortest* counter-
// example — the property SMV's reported traces had ("SMV produces the
// shortest possible trace").
//
// Checker is generic over the model. A Model must provide:
//   using State = ...;                 (equality-comparable)
//   State initial() const;
//   std::vector<SuccessorT<State>> successors(const State&) const;
//   std::pair<State, TransitionLabel> apply(const State&, uint32_t) const;
//   util::PackedState pack(const State&) const;
//   State unpack(const util::PackedState&) const;
// and may provide packed_bits() — the number of significant low bits of
// its pack() encoding — which the compact table backend uses to quotient
// keys (models without it fall back to the full 256-bit width). Both
// TtpcStarModel (the paper's model) and MonitoredModel (the
// history-augmented variant in mc/monitor.h) satisfy this.
//
// Both engines are additionally generic over the visited-table storage
// policy (TableT): util::ConcurrentStateTable (flat, full keys inline) or
// util::CompactStateTable (Cleary-style quotiented keys, ~0.5x the bytes
// per state). The backends answer membership identically, so verdicts,
// statistics, and traces are bit-identical across them; mc::cross_check
// (engine.h) and the known-answer tests gate that contract.
//
// Two query modes:
//   * check(violation)  — safety over transitions: holds iff no reachable
//     transition violates the property; otherwise a minimal trace.
//   * find_state(goal)  — reachability: shortest path to a state satisfying
//     the goal (used by tests to prove, e.g., that startup can succeed).
//
// Checker is the single-threaded reference engine; mc/parallel_checker.h
// implements the same level-synchronized BFS semantics across a thread pool
// and is cross-validated against this class (docs/CHECKER.md).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mc/checkpoint.h"
#include "mc/model.h"
#include "util/cancel_token.h"
#include "util/check.h"
#include "util/concurrent_state_table.h"
#include "util/state_table_base.h"

namespace tta::mc {

/// The paper's correctness criterion (Section 5.1): as the nodes are modeled
/// not to fail, no single fault may force a node that has integrated
/// (active/passive) into the freeze state.
std::function<bool(const WorldState&, const WorldState&)>
no_integrated_node_freezes();

template <class State>
struct TraceStepT {
  State before;
  TransitionLabel label;
  State after;
};

using TraceStep = TraceStepT<WorldState>;

/// Explicit three-valued outcome of a query. Every engine return path
/// assigns a Verdict explicitly, so a budget or deadline bail-out can
/// never leak a default verdict: it is kInconclusive by construction and
/// only a fully exhausted search upgrades it to kHolds.
enum class Verdict : std::uint8_t {
  kHolds = 0,         ///< exhaustive search, property holds / goal unreachable
  kViolated = 1,      ///< counterexample or goal witness found
  kInconclusive = 2,  ///< state budget, deadline, or cancellation stopped it
  /// Redundant dual-engine execution (svc) ran the serial and parallel
  /// engines on the same query and they disagreed — on the verdict or on
  /// the exploration statistics the engines are documented to reproduce
  /// bit-identically. Always a bug (most likely in the lock-free table or
  /// the level-synchronization argument), never cached, and reported with
  /// both engines' stat blocks so the divergence is debuggable.
  kEngineDivergence = 3,
};

const char* to_string(Verdict verdict);

/// Visited-table storage policy for the BFS engines (docs/CHECKER.md,
/// "Memory model"). Selectable end-to-end: CheckOptions on the engines,
/// "table" on a svc::JobSpec. An execution hint — both backends produce
/// bit-identical verdicts and statistics, so it is excluded from the job
/// digest like the engine choice itself.
enum class TableBackend : std::uint8_t {
  kFlat = 0,     ///< util::ConcurrentStateTable — full 256-bit keys inline
  kCompact = 1,  ///< util::CompactStateTable — quotiented keys, ~0.5x bytes
};

const char* to_string(TableBackend backend);

/// Engine-construction knobs that do not change any verdict.
struct CheckOptions {
  TableBackend table = TableBackend::kFlat;
};

struct CheckStats {
  std::uint64_t states_explored = 0;   ///< distinct states expanded
  std::uint64_t transitions = 0;       ///< successor edges generated
  std::uint64_t max_depth = 0;         ///< BFS depth reached
  std::uint64_t dedup_skips = 0;       ///< parallel engine: per-level
                                       ///< successor dedup cache hits
  /// Times a state's hash/mix was computed again for a state the search
  /// had already hashed once: flat-table rebuild rehashes, checkpoint-
  /// restore lookups, and re-expansion after a mid-level overflow. The
  /// successor fast path memoizes the hash at generation time, so a clean
  /// non-growing run reports 0. Diagnostic — like dedup_skips it may
  /// differ between engines/backends and is outside the bit-identity set.
  std::uint64_t hash_recomputes = 0;
  /// Visited-table footprint and probe behavior at the end of the search
  /// (diagnostic; feeds the bench_mc_perf memory panel).
  std::uint64_t table_bytes = 0;
  std::uint64_t table_capacity = 0;
  std::array<std::uint64_t, 8> probe_hist{};  ///< last bin = distance >= 7
  std::uint64_t probe_max = 0;
  double probe_avg = 0.0;
  double seconds = 0.0;
  // Swarm racing diagnostics (mc::SwarmEngine; zero everywhere else).
  // Like dedup_skips/hash_recomputes they are outside the bit-identity
  // set: the canonical verdict/trace fields above stay equal to the
  // serial engine's, these describe how fast the race got there.
  std::uint64_t swarm_workers = 0;       ///< racers launched
  std::uint64_t swarm_race_won = 0;      ///< 1 if a racer beat the sweep
  std::uint64_t swarm_loser_states = 0;  ///< states explored by losing racers
  double swarm_race_seconds = 0.0;  ///< start -> first validated raw trace
  double swarm_cancel_seconds = 0.0;  ///< race win -> last loser stood down
  bool exhausted = true;  ///< false if the state budget stopped the search
  bool cancelled = false;  ///< true if a CancelToken stopped the search
  bool resumed = false;    ///< search continued from a checkpoint file
};

template <class State>
struct CheckResultT {
  Verdict verdict = Verdict::kInconclusive;  ///< always set explicitly
  std::vector<TraceStepT<State>> trace;  ///< counterexample / witness
  CheckStats stats;

  /// True iff the search concluded that the property holds (for
  /// find_state: the goal is NOT reachable). Computed from the verdict,
  /// so — unlike the removed legacy bool, which stayed default-true on a
  /// bail-out — an inconclusive result is never mistaken for a pass.
  bool holds() const { return verdict == Verdict::kHolds; }
};

using CheckResult = CheckResultT<WorldState>;

/// Result of the AG EF ("always recoverable") analysis: from every
/// reachable state, is a goal state still reachable?
template <class State>
struct RecoverabilityResultT {
  bool recoverable_everywhere = true;
  Verdict verdict = Verdict::kInconclusive;  ///< always set explicitly
  std::uint64_t dead_states = 0;  ///< reachable states with no path to goal
  /// Shortest path into the recoverability-violating region (if any).
  std::vector<TraceStepT<State>> witness;
  CheckStats stats;
};

using RecoverabilityResult = RecoverabilityResultT<WorldState>;

namespace detail {

inline constexpr std::uint8_t kBfsRootFlag = 1;
inline constexpr std::uint8_t kBfsGoalFlag = 2;

/// Inline per-state value both engines store in the visited table: BFS
/// parent as a slot index (rewritten through the remap whenever the table
/// rebuilds), the choice code that replays parent -> state, and the BFS
/// depth. Kept at 12 bytes (u16 depth — this model family's diameters are
/// in the hundreds) because the value rides in every slot of both
/// backends; see the bytes/state budget in docs/CHECKER.md.
struct BfsNode {
  std::uint32_t parent = 0;
  std::uint32_t choice = 0;
  std::uint16_t depth = 0;
  std::uint8_t flags = 0;
};
static_assert(sizeof(BfsNode) == 12, "BfsNode rides in every table slot");

/// The transition graph a recoverability forward pass records, in CSR
/// form (compressed sparse rows). Row r is the r-th expanded state in BFS
/// order, rows[r] its table slot, and its successors' slots are
/// targets[offsets[r] .. offsets[r + 1]) — one 4-byte slot per transition.
/// Rows are appended a level at a time, so their depths never decrease.
struct BfsGraph {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> targets;

  /// Closes the current row after its targets were appended.
  void end_row() {
    TTA_CHECK(targets.size() < UINT32_MAX);
    offsets.push_back(static_cast<std::uint32_t>(targets.size()));
  }

  /// Rewrites every slot index after a table rebuild.
  void remap(const std::vector<std::uint32_t>& slot_map) {
    for (std::uint32_t& s : rows) s = slot_map[s];
    for (std::uint32_t& s : targets) s = slot_map[s];
  }
};

/// The model's significant packed width, for key quotienting; models that
/// do not declare packed_bits() use all 256 bits (always correct).
template <class Model>
unsigned packed_key_bits(const Model& model) {
  if constexpr (requires { model.packed_bits(); }) {
    return model.packed_bits();
  } else {
    return static_cast<unsigned>(util::kPackedWords) * 64;
  }
}

/// Builds the trace root -> ... -> `last` by walking parent slots, then
/// replaying each stored choice to recover the labels.
template <class Model, class Table>
std::vector<TraceStepT<typename Model::State>> reconstruct_trace(
    const Model& model, const Table& table, std::uint32_t last) {
  std::vector<std::uint32_t> path{last};
  while (!(table.value_at(path.back()).flags & kBfsRootFlag)) {
    path.push_back(table.value_at(path.back()).parent);
  }
  std::vector<TraceStepT<typename Model::State>> steps;
  for (std::size_t i = path.size(); i-- > 1;) {
    TraceStepT<typename Model::State> step;
    step.before = model.unpack(table.key_at(path[i]));
    auto [next, label] =
        model.apply(step.before, table.value_at(path[i - 1]).choice);
    TTA_CHECK(model.pack(next) == table.key_at(path[i - 1]));
    step.label = label;
    step.after = next;
    steps.push_back(step);
  }
  return steps;
}

/// AG EF verdict from a complete forward graph: the backward closure from
/// the goal-tagged states over the reversed edges, the dead-state count,
/// and the shortest witness into the dead region. One function serves both
/// engines. The witness ends at the first dead row, which has minimal depth
/// because rows are in BFS order. `result->stats` must already hold the
/// forward pass's statistics; an incomplete pass (budget or cancellation)
/// withholds the verdict.
template <class Model, class Table>
void close_recoverability(
    const Model& model, const Table& table, const BfsGraph& graph,
    RecoverabilityResultT<typename Model::State>* result) {
  result->dead_states = 0;
  result->recoverable_everywhere = false;
  if (!result->stats.exhausted) {
    result->verdict = Verdict::kInconclusive;
    return;
  }

  // Reverse CSR over slots: preds[bucket[t] .. bucket[t + 1]) lists t's
  // predecessors. A counting sort, filled back to front so the counts
  // become the bucket starts without a second cursor array.
  const std::size_t cap = table.capacity();
  std::vector<std::uint32_t> bucket(cap + 1, 0);
  for (std::uint32_t t : graph.targets) ++bucket[t];
  for (std::size_t s = 1; s < cap; ++s) bucket[s] += bucket[s - 1];
  bucket[cap] = static_cast<std::uint32_t>(graph.targets.size());
  std::vector<std::uint32_t> preds(graph.targets.size());
  for (std::size_t r = 0; r < graph.rows.size(); ++r) {
    for (std::uint32_t e = graph.offsets[r]; e < graph.offsets[r + 1]; ++e) {
      preds[--bucket[graph.targets[e]]] = graph.rows[r];
    }
  }

  std::vector<std::uint8_t> can_recover(cap, 0);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t s : graph.rows) {
    if (table.value_at(s).flags & kBfsGoalFlag) {
      can_recover[s] = 1;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t cur = queue[head];
    for (std::uint32_t e = bucket[cur]; e < bucket[cur + 1]; ++e) {
      if (!can_recover[preds[e]]) {
        can_recover[preds[e]] = 1;
        queue.push_back(preds[e]);
      }
    }
  }

  std::uint32_t witness_slot = Table::kNoSlot;
  for (std::uint32_t s : graph.rows) {
    if (can_recover[s]) continue;
    if (result->dead_states++ == 0) witness_slot = s;
  }
  result->recoverable_everywhere = result->dead_states == 0;
  result->verdict = result->recoverable_everywhere ? Verdict::kHolds
                                                   : Verdict::kViolated;
  if (!result->recoverable_everywhere) {
    result->witness = reconstruct_trace(model, table, witness_slot);
  }
}

/// Grows `table` so `needed` entries fit under max_load(), dropping
/// entries selected by `drop`, and rewrites the parent links inside the
/// table. Returns the remap so the caller can rewrite every slot index it
/// holds (frontiers, edge lists, pending hits). Single-threaded; called
/// only at synchronization points.
template <class Table, class Drop>
std::vector<std::uint32_t> grow_table(Table& table, std::size_t needed,
                                      Drop&& drop) {
  std::size_t cap = table.capacity();
  while (cap - cap / 4 <= needed) cap <<= 1;
  std::vector<std::uint32_t> remap =
      table.rebuild(cap, std::forward<Drop>(drop));
  for (std::uint32_t s = 0; s < table.capacity(); ++s) {
    if (!table.occupied(s)) continue;
    BfsNode& info = table.value_at(s);
    if (!(info.flags & kBfsRootFlag)) info.parent = remap[info.parent];
  }
  return remap;
}

struct KeepAll {
  bool operator()(const BfsNode&) const { return false; }
};

/// Stamps the table's end-of-search footprint and probe behavior into the
/// stats block (and folds in the hashes the table recomputed internally).
template <class Table>
void fill_table_stats(const Table& table, CheckStats* stats) {
  stats->table_bytes = table.memory_bytes();
  stats->table_capacity = table.capacity();
  stats->hash_recomputes += table.hash_recomputes();
  const util::TableProbeStats probe = table.probe_stats();
  stats->probe_hist = probe.hist;
  stats->probe_max = probe.max_probe;
  stats->probe_avg = probe.avg_probe;
}

/// Serializes the wavefront for save_checkpoint: the visited set in slot
/// order (content-addressed on restore) with parent slot indices converted
/// to packed keys — slots do not survive a restart — and the frontier in
/// exactly its expansion order, which the bit-identity contract depends
/// on. The format stores full keys, so a checkpoint written under one
/// table backend (or engine) restores under any other.
template <class Table>
CheckpointData snapshot_wavefront(const Table& table,
                                  const std::vector<std::uint32_t>& level,
                                  std::uint32_t next_depth,
                                  const CheckStats& stats,
                                  CheckpointData::Mode mode) {
  CheckpointData data;
  data.mode = mode;
  data.next_depth = next_depth;
  data.transitions = stats.transitions;
  data.dedup_skips = stats.dedup_skips;
  data.hash_recomputes = stats.hash_recomputes + table.hash_recomputes();
  data.visited.reserve(table.size());
  for (std::uint32_t s = 0; s < table.capacity(); ++s) {
    if (!table.occupied(s)) continue;
    const BfsNode& info = table.value_at(s);
    CheckpointEntry e;
    e.key = table.key_at(s);
    e.parent = (info.flags & kBfsRootFlag) ? e.key
                                           : table.key_at(info.parent);
    e.choice = info.choice;
    e.depth = info.depth;
    e.flags = (info.flags & kBfsRootFlag) ? CheckpointEntry::kRootFlag : 0;
    data.visited.push_back(e);
  }
  data.frontier.reserve(level.size());
  for (std::uint32_t s : level) data.frontier.push_back(table.key_at(s));
  return data;
}

/// Loads a checkpoint into `table` + `level`. Restore happens in two
/// passes: inserts assign fresh slots (remembered in insertion order, so
/// no per-entry re-hash), then parent keys are resolved back into slot
/// indices. The parent/frontier find()s are genuine hash recomputes and
/// are counted as such. Returns false softly when there is nothing to
/// resume.
template <class Table>
bool restore_wavefront(const CheckpointConfig& ckpt,
                       CheckpointData::Mode mode, Table& table,
                       std::vector<std::uint32_t>* level,
                       std::uint32_t* start_depth, CheckStats* stats,
                       std::size_t frontier_headroom) {
  CheckpointData data;
  if (!load_checkpoint(ckpt, &data, mode)) return false;
  const std::size_t needed =
      data.visited.size() + frontier_headroom * data.frontier.size();
  if (needed >= table.max_load()) {
    std::size_t cap = table.capacity();
    while (cap - cap / 4 <= needed) cap <<= 1;
    table.rebuild(cap);
  }
  std::vector<std::uint32_t> slots;
  slots.reserve(data.visited.size());
  for (const CheckpointEntry& e : data.visited) {
    TTA_CHECK(e.depth <= UINT16_MAX);
    BfsNode info{0, e.choice, static_cast<std::uint16_t>(e.depth),
                 (e.flags & CheckpointEntry::kRootFlag)
                     ? kBfsRootFlag
                     : std::uint8_t{0}};
    typename Table::Insert r = table.insert(e.key, info);
    if (r.slot == Table::kNoSlot) {
      // The compact backend can saturate on its displacement bound before
      // the load ceiling; grow and retry (parents are still placeholders,
      // so only the slot list needs rewriting).
      std::vector<std::uint32_t> remap =
          grow_table(table, table.size() * 2, KeepAll{});
      for (std::uint32_t& s : slots) s = remap[s];
      r = table.insert(e.key, info);
    }
    TTA_CHECK(r.inserted);
    slots.push_back(r.slot);
  }
  for (std::size_t i = 0; i < data.visited.size(); ++i) {
    const CheckpointEntry& e = data.visited[i];
    if (e.flags & CheckpointEntry::kRootFlag) continue;
    const std::uint32_t parent = table.find(e.parent);
    ++stats->hash_recomputes;
    TTA_CHECK(parent != Table::kNoSlot);
    table.value_at(slots[i]).parent = parent;
  }
  level->clear();
  level->reserve(data.frontier.size());
  for (const util::PackedState& s : data.frontier) {
    const std::uint32_t slot = table.find(s);
    ++stats->hash_recomputes;
    TTA_CHECK(slot != Table::kNoSlot);
    level->push_back(slot);
  }
  *start_depth = data.next_depth;
  stats->transitions = data.transitions;
  stats->dedup_skips = data.dedup_skips;
  stats->hash_recomputes += data.hash_recomputes;
  stats->resumed = true;
  return true;
}

}  // namespace detail

template <class Model,
          template <class> class TableT = util::ConcurrentStateTable>
class Checker {
 public:
  using State = typename Model::State;
  using Violation = std::function<bool(const State&, const State&)>;
  using Goal = std::function<bool(const State&)>;

  explicit Checker(const Model& model,
                   std::size_t initial_capacity = 1u << 16)
      : model_(&model), initial_capacity_(initial_capacity) {}

  /// Exhaustive safety check. `max_states` bounds memory; if the bound is
  /// hit the result reports exhausted = false and verdict = kInconclusive.
  /// A non-null `cancel` token is polled once per
  /// expanded state; tripping it ends the search with kInconclusive and
  /// honest partial stats — never a hang, never a fabricated verdict.
  /// A non-null `checkpoint` makes the search resumable: the wavefront is
  /// saved at level barriers and a later invocation with the same config
  /// continues from it to a bit-identical result (mc/checkpoint.h).
  CheckResultT<State> check(const Violation& violation,
                            std::uint64_t max_states = 50'000'000,
                            const util::CancelToken* cancel = nullptr,
                            const CheckpointConfig* checkpoint =
                                nullptr) const {
    Table table(initial_capacity_, detail::packed_key_bits(*model_));
    return run(table, &violation, nullptr, max_states, cancel, checkpoint);
  }

  /// Shortest witness to a goal state; holds() == true means unreachable.
  CheckResultT<State> find_state(const Goal& goal,
                                 std::uint64_t max_states = 50'000'000,
                                 const util::CancelToken* cancel = nullptr,
                                 const CheckpointConfig* checkpoint =
                                     nullptr) const {
    Table table(initial_capacity_, detail::packed_key_bits(*model_));
    return run(table, nullptr, &goal, max_states, cancel, checkpoint);
  }

  /// AG EF goal — an availability property stronger than the safety check:
  /// from *every* reachable state there must still exist a path to a goal
  /// state. Computed as a forward exploration of the full reachable graph
  /// (the same run() as check(), recording CSR edges and tagging goal
  /// states in the table) followed by detail::close_recoverability, the
  /// backward closure from the goal states; a state outside the closure is
  /// "dead" (the system can no longer recover from it). The table backend
  /// policy applies here as it does to check()/find_state().
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
    result.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  }

 private:
  using Table = TableT<detail::BfsNode>;

  // Level-synchronized BFS: the frontier is expanded one full depth level
  // at a time, and a violation/goal found at level d is reported only after
  // every state of level d has been expanded and all its successors
  // recorded. Within a level the first hit in frontier order wins, which is
  // the same transition the classic pop-one-state BFS would report — but
  // the level-complete accounting makes states_explored, transitions and
  // max_depth functions of the state graph alone, independent of intra-
  // level visit order. ParallelChecker implements the identical semantics
  // with the level split across threads, so the two engines can be
  // cross-validated field-for-field (see docs/CHECKER.md).
  //
  // The visited set lives in a slot table (the TableT policy), like the
  // parallel engine's: the frontier holds slot indices, parents are slot
  // links, and growth remaps them — in place, mid-level, since exactly one
  // thread is active here (the parallel engine instead drops the partial
  // level and retries at the barrier).
  //
  // With `graph` set (check_recoverability), the pass records every
  // transition into it and tags the states satisfying `tag_goal`. The
  // checkpoint format does not carry the edge list, so that mode never
  // checkpoints.
  CheckResultT<State> run(Table& table, const Violation* violation,
                          const Goal* goal, std::uint64_t max_states,
                          const util::CancelToken* cancel,
                          const CheckpointConfig* checkpoint,
                          detail::BfsGraph* graph = nullptr,
                          const Goal* tag_goal = nullptr) const {
    const auto t0 = std::chrono::steady_clock::now();
    CheckResultT<State> result;
    const CheckpointData::Mode ckpt_mode =
        violation ? CheckpointData::Mode::kSafetyCheck
                  : CheckpointData::Mode::kFindState;
    if (graph) checkpoint = nullptr;

    auto finish = [&](Verdict verdict) {
      result.verdict = verdict;
      result.stats.states_explored = table.size();
      detail::fill_table_stats(table, &result.stats);
      result.stats.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    };

    std::vector<std::uint32_t> level;
    std::uint32_t start_depth = 0;
    if (checkpoint) {
      detail::restore_wavefront(*checkpoint, ckpt_mode, table, &level,
                                &start_depth, &result.stats,
                                /*frontier_headroom=*/0);
    }
    if (!result.stats.resumed) {
      State init = model_->initial();
      detail::BfsNode root{0, 0, 0, detail::kBfsRootFlag};
      if (tag_goal && (*tag_goal)(init)) root.flags |= detail::kBfsGoalFlag;
      typename Table::Insert ins = table.insert(model_->pack(init), root);
      TTA_CHECK(ins.inserted);
      level.push_back(ins.slot);
      if (goal && (*goal)(init)) {
        finish(Verdict::kViolated);
        return result;  // goal reachable at depth 0, empty witness
      }
    }

    bool was_cancelled = false;
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

      // First violating transition (frontier order) and first discovered
      // goal state in this level, if any — tracked as slots, remapped on
      // growth.
      bool violation_found = false;
      std::uint32_t violation_slot = Table::kNoSlot;
      std::uint32_t violation_choice = 0;
      bool goal_found = false;
      std::uint32_t goal_slot = Table::kNoSlot;

      std::vector<std::uint32_t> next_level;
      if (graph) {
        graph->rows.insert(graph->rows.end(), level.begin(), level.end());
      }
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (cancel && cancel->cancelled()) {
          was_cancelled = true;
          break;
        }
        std::uint32_t cur_slot = level[i];
        State cur = model_->unpack(table.key_at(cur_slot));
        for (const auto& succ : model_->successors(cur)) {
          ++result.stats.transitions;
          if (violation && !violation_found &&
              (*violation)(cur, succ.next)) {
            violation_found = true;
            violation_slot = cur_slot;
            violation_choice = succ.choice_code;
          }
          util::PackedState next_packed = model_->pack(succ.next);
          const typename Table::Hashed hashed = table.hash(next_packed);
          detail::BfsNode node{cur_slot, succ.choice_code,
                               static_cast<std::uint16_t>(depth + 1), 0};
          typename Table::Insert r = table.insert(next_packed, node, hashed);
          if (r.slot == Table::kNoSlot) {
            // In-place growth: single-threaded, so remap every slot index
            // in flight and retry the same insert with the same memoized
            // hash — no transition is recounted, no level is redone.
            // Room for twice the size quadruples the capacity (few
            // rebuilds). A recoverability pass keeps its table through the
            // closure, so it only doubles (asking for max_load() doubles
            // even when the compact backend saturates below its ceiling).
            std::vector<std::uint32_t> remap = detail::grow_table(
                table, graph ? table.max_load() : table.size() * 2,
                detail::KeepAll{});
            for (std::uint32_t& s : level) s = remap[s];
            for (std::uint32_t& s : next_level) s = remap[s];
            if (graph) graph->remap(remap);
            if (violation_found) violation_slot = remap[violation_slot];
            if (goal_found) goal_slot = remap[goal_slot];
            cur_slot = remap[cur_slot];
            node.parent = cur_slot;
            r = table.insert(next_packed, node, hashed);
            TTA_CHECK(r.slot != Table::kNoSlot);
          }
          if (r.inserted) {
            next_level.push_back(r.slot);
            if (tag_goal && (*tag_goal)(succ.next)) {
              table.value_at(r.slot).flags |= detail::kBfsGoalFlag;
            }
            if (goal && !goal_found && (*goal)(succ.next)) {
              goal_found = true;
              goal_slot = r.slot;
            }
          }
          if (graph) graph->targets.push_back(r.slot);
        }
        if (graph) graph->end_row();
      }

      if (was_cancelled) {
        // The level is half-expanded, so neither a verdict nor a minimal
        // counterexample can be reported; bail out with partial stats.
        break;
      }

      if (violation_found) {
        // Counterexample: path to the violating state plus the violating
        // transition itself.
        std::vector<TraceStepT<State>> steps =
            detail::reconstruct_trace(*model_, table, violation_slot);
        TraceStepT<State> final_step;
        final_step.before = model_->unpack(table.key_at(violation_slot));
        auto [next, label] = model_->apply(final_step.before,
                                           violation_choice);
        final_step.label = label;
        final_step.after = next;
        steps.push_back(final_step);
        result.trace = std::move(steps);
        finish(Verdict::kViolated);
        return result;
      }
      if (goal_found) {
        result.trace = detail::reconstruct_trace(*model_, table, goal_slot);
        finish(Verdict::kViolated);
        return result;
      }
      if (next_level.empty()) break;
      level = std::move(next_level);
      // Level barrier: persist the wavefront so a later run — after a
      // crash, a fired deadline, or a budget bail — continues from here
      // instead of re-exploring everything. Best-effort by design.
      if (checkpoint &&
          (depth + 1) % std::max(1u, checkpoint->every_levels) == 0) {
        save_checkpoint(*checkpoint,
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
  std::size_t initial_capacity_;
};

}  // namespace tta::mc
