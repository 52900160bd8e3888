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
//   void successors(const State&, std::vector<SuccessorT<State>>&) const;
//   std::pair<State, TransitionLabel> apply(const State&, uint32_t) const;
//   bool legal_choice(const State&, uint32_t) const;
//   util::PackedState pack(const State&) const;
//   State unpack(const util::PackedState&) const;
// successors() fills a caller-owned buffer (the engine keeps one per
// chunk) and gives every successor its visited-table key, which must equal
// pack(next): the engine inserts succ.key and never packs a successor.
// pack() and apply() are the reference semantics: the engine calls them
// for the root, for trace replay (which re-checks every replayed key), and
// to vet a restored checkpoint, and the naive oracle in tests/naive_bfs.h
// uses nothing else. legal_choice() says whether successors() would
// generate a choice code; apply() is only called on legal codes.
// A model may provide packed_bits() — the number of significant low bits
// of its pack() encoding — which both table backends use to size their
// keys (models without it fall back to the full 256-bit width). Both
// TtpcStarModel (the paper's model) and MonitoredModel (the
// history-augmented variant in mc/monitor.h) satisfy this.
//
// Checker is additionally generic over the visited-table storage policy
// (TableT): util::ConcurrentStateTable (flat, the key's significant words
// inline) or util::CompactStateTable (Cleary-style quotiented keys). The
// backends answer membership identically, so verdicts, statistics, and
// traces are bit-identical across them; mc::cross_check
// (engine.h) and the known-answer tests gate that contract.
//
// Two query modes:
//   * check(violation)  — safety over transitions: holds iff no reachable
//     transition violates the property; otherwise a minimal trace.
//   * find_state(goal)  — reachability: shortest path to a state satisfying
//     the goal (used by tests to prove, e.g., that startup can succeed).
//
// Checker is the only BFS engine. Each depth level is split into
// contiguous frontier chunks expanded over a util::ThreadPool, with the
// visited set in a shared lock-free table (LTSmin-style). At one thread
// the single chunk is the whole frontier, so the expansion order is the
// naive FIFO BFS order and the traces are canonical; at any thread count
// verdicts and exploration statistics are identical (docs/CHECKER.md).
// tests/naive_bfs.h is the independent reference the engine is checked
// against.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
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
#include "util/thread_pool.h"

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
  /// Redundant dual-engine execution (svc) ran the same query at one and
  /// at N threads (or on two table backends) and the runs disagreed — on
  /// the verdict or on the exploration statistics the engine is documented
  /// to reproduce bit-identically. Always a bug (most likely in the lock-
  /// free table or the level-synchronization argument), never cached, and
  /// reported with both runs' stat blocks so the divergence is debuggable.
  kEngineDivergence = 3,
};

const char* to_string(Verdict verdict);

/// Visited-table storage policy for the BFS engines (docs/CHECKER.md,
/// "Memory model"). Selectable end-to-end: CheckOptions on the engines,
/// "table" on a svc::JobSpec. An execution hint — both backends produce
/// bit-identical verdicts and statistics, so it is excluded from the job
/// digest like the engine choice itself.
enum class TableBackend : std::uint8_t {
  kFlat = 0,     ///< util::ConcurrentStateTable — key words inline
  kCompact = 1,  ///< util::CompactStateTable — quotiented keys
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
  std::uint64_t dedup_skips = 0;       ///< per-chunk, per-level successor
                                       ///< dedup cache hits
  /// Times a state's hash/mix was computed again for a state the search
  /// had already hashed once: flat-table rebuild rehashes, checkpoint-
  /// restore lookups, and re-expansion after a mid-level overflow. The
  /// successor fast path memoizes the hash at generation time, so a clean
  /// non-growing run reports 0. Diagnostic — like dedup_skips it may
  /// differ between thread counts/backends and is outside the bit-identity
  /// set.
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
  // 1-thread engine's, these describe how fast the race got there.
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

/// Inline per-state value the engine stores in the visited table: BFS
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

/// The model's significant packed width, which sizes both backends' keys
/// (flat: stored words; compact: quotient); models that do not declare
/// packed_bits() use all 256 bits (always correct).
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
/// and the shortest witness into the dead region. The witness ends at the
/// first dead row, which has minimal depth because rows are in BFS order.
/// `result->stats` must already hold the forward pass's statistics; an
/// incomplete pass (budget or cancellation) withholds the verdict.
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
/// holds (frontier, edge list, checkpoint slots). Single-threaded; called
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
/// table backend or thread count restores under any other.
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
/// indices and every non-root entry is replayed once from its parent. The
/// parent/frontier find()s are genuine hash recomputes and are counted as
/// such. Returns false softly when there is nothing to resume — including
/// a file that passed its CRC, binding and mode checks but does not
/// describe a BFS wavefront (a duplicate key, a parent or frontier key
/// that is not in the visited set, a depth that does not fit BfsNode or
/// does not follow its parent's, a choice code that does not lead from
/// the parent to the entry). In that case the table is left empty, so the
/// caller starts fresh.
template <class Model, class Table>
bool restore_wavefront(const Model& model, const CheckpointConfig& ckpt,
                       CheckpointData::Mode mode, Table& table,
                       std::vector<std::uint32_t>* level,
                       std::uint32_t* start_depth, CheckStats* stats,
                       std::size_t frontier_headroom) {
  CheckpointData data;
  if (!load_checkpoint(ckpt, &data, mode)) return false;
  auto reject = [&] {
    table.rebuild(table.capacity(), [](const BfsNode&) { return true; });
    level->clear();
    return false;
  };
  if (data.next_depth >= UINT16_MAX) return reject();
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
    if (e.depth > UINT16_MAX) return reject();
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
    if (!r.inserted) return reject();
    slots.push_back(r.slot);
  }
  std::uint64_t finds = 0;
  for (std::size_t i = 0; i < data.visited.size(); ++i) {
    const CheckpointEntry& e = data.visited[i];
    if (e.flags & CheckpointEntry::kRootFlag) continue;
    const std::uint32_t parent = table.find(e.parent);
    ++finds;
    // Depths strictly decrease along parent links, so every trace walk
    // ends at a root.
    if (parent == Table::kNoSlot ||
        table.value_at(parent).depth + 1u != e.depth) {
      return reject();
    }
    // Trace reconstruction replays this choice and checks the result, so
    // a code that does not lead parent -> entry is rejected here instead.
    const typename Model::State before = model.unpack(e.parent);
    if (!model.legal_choice(before, e.choice) ||
        model.pack(model.apply(before, e.choice).first) != e.key) {
      return reject();
    }
    table.value_at(slots[i]).parent = parent;
  }
  level->clear();
  level->reserve(data.frontier.size());
  for (const util::PackedState& s : data.frontier) {
    const std::uint32_t slot = table.find(s);
    ++finds;
    if (slot == Table::kNoSlot) return reject();
    level->push_back(slot);
  }
  *start_depth = data.next_depth;
  stats->transitions = data.transitions;
  stats->dedup_skips = data.dedup_skips;
  stats->hash_recomputes += data.hash_recomputes + finds;
  stats->resumed = true;
  return true;
}

}  // namespace detail

/// Worker-thread count of a Checker; 0 picks the hardware concurrency. A
/// distinct type rather than a bare integer, so a table capacity can never
/// land in the thread-count position: Checker(model, 1u << 18) does not
/// compile.
struct Threads {
  constexpr explicit Threads(unsigned n) : count(n) {}
  unsigned count;
};

template <class Model,
          template <class> class TableT = util::ConcurrentStateTable>
class Checker {
 public:
  using State = typename Model::State;
  using Violation = std::function<bool(const State&, const State&)>;
  using Goal = std::function<bool(const State&)>;

  /// One thread (the default) expands every level on the calling thread
  /// and starts no worker; `initial_capacity` is the visited table's
  /// starting slot count.
  explicit Checker(const Model& model, Threads threads = Threads{1},
                   std::size_t initial_capacity = 1u << 16)
      : model_(&model),
        pool_(threads.count),
        initial_capacity_(initial_capacity) {}

  /// Test hook: states of headroom the proactive growth budgets per
  /// frontier state. 0 disables proactive growth so a growing level must
  /// take the mid-level overflow + retry path.
  void set_growth_headroom(std::size_t per_frontier_state) {
    growth_headroom_ = per_frontier_state;
  }

  /// Exhaustive safety check. `max_states` bounds memory; if the bound is
  /// hit the result reports exhausted = false and verdict = kInconclusive.
  /// A non-null `cancel` token is polled once per
  /// expanded state; tripping it ends the search with kInconclusive and
  /// honest partial stats — never a hang, never a fabricated verdict.
  /// A non-null `checkpoint` makes the search resumable: the wavefront is
  /// saved at level barriers and a later invocation with the same config
  /// continues from it to a bit-identical result (mc/checkpoint.h), at any
  /// thread count and on either table backend.
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
  /// "dead" (the system can no longer recover from it).
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
  using Table = TableT<detail::BfsNode>;

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
  /// rewrites the slot references the run holds: the current frontier and
  /// (for recoverability) the recorded graph. Single-threaded; called only
  /// at level barriers.
  template <class Drop>
  static void grow(Table& table, std::size_t needed,
                   std::vector<std::uint32_t>& level, detail::BfsGraph* graph,
                   Drop&& drop) {
    std::vector<std::uint32_t> remap =
        detail::grow_table(table, needed, std::forward<Drop>(drop));
    for (std::uint32_t& s : level) s = remap[s];
    if (graph) graph->remap(remap);
  }

  // Level-synchronized BFS: the frontier is expanded one full depth level
  // at a time, split into contiguous chunks (one per pool thread), and a
  // violation/goal found at level d is reported only after every state of
  // level d has been expanded and all its successors recorded. Within a
  // level the first hit in frontier order wins, which is the transition
  // the classic pop-one-state FIFO BFS would report — and the level-
  // complete accounting makes states_explored, transitions and max_depth
  // functions of the state graph alone, independent of the thread count
  // (see docs/CHECKER.md).
  //
  // Capacity grows by rebuilding at level barriers, where exactly one
  // thread is active; if a level overflows the table mid-flight, the
  // partially inserted level is dropped during the rebuild and the level
  // is re-expanded (insert-if-absent makes the retry idempotent; the
  // re-expansion's hashes are surfaced in CheckStats::hash_recomputes).
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
      detail::restore_wavefront(*model_, *ckpt, ckpt_mode, table, &level,
                                &start_depth, &result.stats,
                                growth_headroom_);
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
            std::vector<SuccessorT<State>> succs;
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
              model_->successors(cur, succs);
              for (const SuccessorT<State>& succ : succs) {
                ++my_transitions;
                if (violation && my_violation.slot == Table::kNoSlot &&
                    (*violation)(cur, succ.next)) {
                  my_violation = Hit{i, cur_slot, succ.choice_code};
                }
                const util::PackedState& packed = succ.key;
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
                detail::BfsNode info{cur_slot, succ.choice_code,
                                     static_cast<std::uint16_t>(depth + 1),
                                     0};
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
             [dropped_depth](const detail::BfsNode& info) {
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
      // interrupted run — after a crash, a fired deadline, or a budget
      // bail — resumes instead of re-exploring. Best-effort by design.
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
