// The unified engine interface: one `run(model, query) -> result` surface
// over the one BFS core (mc::Checker) at one thread and at N threads, and
// their redundant cross-checked composition.
//
// Callers above this line (the verification service) schedule *engines*,
// not if-ladders: a query is a declarative (kind, predicate, budget)
// triple, an engine is an object, and redundancy is composition —
// RedundantEngine wraps any two engines and cross-checks their answers,
// so a TMR tiebreaker is a third wrapped engine away, not a new switch
// arm in every dispatch site.
//
// Engines keep the contracts of the Checker they wrap (docs/CHECKER.md):
// bit-identical verdicts and exploration statistics between SerialEngine
// and ParallelEngine at any thread count, cooperative cancellation via
// util::CancelToken, and checkpoint/resume at BFS level barriers where
// supports_checkpoint() allows it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "mc/model.h"
#include "util/cancel_token.h"

namespace tta::mc {

/// A declarative engine query: what to search for and how hard to try.
/// Exactly one of `violation` / `goal` is consulted, per `kind`.
struct EngineQuery {
  enum class Kind : std::uint8_t {
    kSafetyCheck = 0,     ///< Checker::check over `violation`
    kFindState = 1,       ///< Checker::find_state over `goal`
    kRecoverability = 2,  ///< Checker::check_recoverability over `goal`
  };

  Kind kind = Kind::kSafetyCheck;
  Checker<TtpcStarModel>::Violation violation;  ///< kSafetyCheck only
  Checker<TtpcStarModel>::Goal goal;  ///< kFindState / kRecoverability
  std::uint64_t max_states = 50'000'000;
};

/// What every engine returns: the explicit verdict, the exploration
/// fingerprint, and — for redundant compositions — the second engine's
/// stat block (`stats` holds the engine whose answer was adopted).
struct EngineResult {
  Verdict verdict = Verdict::kInconclusive;
  CheckStats stats;
  std::uint64_t dead_states = 0;     ///< kRecoverability only
  std::vector<TraceStep> trace;      ///< counterexample / witness
  bool redundant = false;            ///< produced by a cross-checked pair
  CheckStats secondary_stats;        ///< redundant only: the other engine
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual const char* name() const = 0;

  /// False when the engine must not be given a checkpoint sink (redundant
  /// compositions: two engines racing on one wavefront file would corrupt
  /// it, and per-engine files would let a resumed half diverge for free).
  virtual bool supports_checkpoint() const { return true; }

  /// Runs one query to an explicit verdict. `cancel` may be null (never
  /// cancelled); `checkpoint` may be null (no resume) and is ignored by
  /// engines that report supports_checkpoint() == false, as well as for
  /// kRecoverability queries (mc/checkpoint.h scopes the format to the
  /// BFS wavefront, which recoverability's edge list outgrows).
  virtual EngineResult run(const TtpcStarModel& model,
                           const EngineQuery& query,
                           const util::CancelToken* cancel,
                           const CheckpointConfig* checkpoint) const = 0;
};

/// The Checker at one thread behind the Engine interface: the expansion
/// order is the FIFO BFS order, so its traces are the canonical ones.
/// `options.table` selects the visited-table backend (flat/compact); both
/// backends are contractually bit-identical, so the choice is invisible in
/// the result and only moves the memory/throughput tradeoff.
class SerialEngine final : public Engine {
 public:
  explicit SerialEngine(CheckOptions options = {}) : options_(options) {}

  const char* name() const override { return "serial"; }
  TableBackend table_backend() const { return options_.table; }
  EngineResult run(const TtpcStarModel& model, const EngineQuery& query,
                   const util::CancelToken* cancel,
                   const CheckpointConfig* checkpoint) const override;

 private:
  CheckOptions options_;
};

/// The Checker at `threads` workers behind the Engine interface.
class ParallelEngine final : public Engine {
 public:
  /// `threads` == 0 picks the hardware concurrency.
  explicit ParallelEngine(unsigned threads = 0, CheckOptions options = {})
      : threads_(threads), options_(options) {}

  const char* name() const override { return "parallel"; }
  unsigned threads() const { return threads_; }
  TableBackend table_backend() const { return options_.table; }
  EngineResult run(const TtpcStarModel& model, const EngineQuery& query,
                   const util::CancelToken* cancel,
                   const CheckpointConfig* checkpoint) const override;

 private:
  unsigned threads_;
  CheckOptions options_;
};

/// Redundant composition, mirroring the paper's dual star couplers: the
/// same query runs on both wrapped engines concurrently (the reference on
/// a helper thread, the shadow on the caller), and the answers are merged
/// by cross_check(). Costs roughly the sum of both engines.
class RedundantEngine final : public Engine {
 public:
  RedundantEngine(std::unique_ptr<Engine> reference,
                  std::unique_ptr<Engine> shadow);

  const char* name() const override { return "redundant"; }
  bool supports_checkpoint() const override { return false; }
  EngineResult run(const TtpcStarModel& model, const EngineQuery& query,
                   const util::CancelToken* cancel,
                   const CheckpointConfig* checkpoint) const override;

 private:
  std::unique_ptr<Engine> reference_;
  std::unique_ptr<Engine> shadow_;
};

/// Merges a redundant pair's results (exposed for tests). Rules: both
/// conclusive and agreeing (verdict + state counts + depth + dead states +
/// trace length) -> the reference result with the shadow's stats attached;
/// both conclusive but disagreeing -> kEngineDivergence with both stat
/// blocks and no trace (neither deserves trust); exactly one conclusive ->
/// that answer (the redundancy payoff: one stalled engine no longer blocks
/// the job); neither conclusive -> the attempt that got further.
EngineResult cross_check(const EngineResult& reference,
                         const EngineResult& shadow);

}  // namespace tta::mc
