#include "mc/engine.h"

#include <thread>
#include <utility>

#include "util/compact_state_table.h"

namespace tta::mc {

namespace {

bool conclusive(Verdict verdict) {
  return verdict == Verdict::kHolds || verdict == Verdict::kViolated;
}

EngineResult from_check(CheckResult&& res) {
  EngineResult out;
  out.verdict = res.verdict;
  out.stats = res.stats;
  out.trace = std::move(res.trace);
  return out;
}

EngineResult from_recoverability(RecoverabilityResult&& res) {
  EngineResult out;
  out.verdict = res.verdict;
  out.stats = res.stats;
  out.dead_states = res.dead_states;
  out.trace = std::move(res.witness);
  return out;
}

/// One query on the BFS core at `threads` workers; the flat/compact table
/// switch for every engine lives here.
EngineResult run_core(const TtpcStarModel& model, unsigned threads,
                      TableBackend table, const EngineQuery& query,
                      const util::CancelToken* cancel,
                      const CheckpointConfig* checkpoint) {
  auto dispatch = [&](const auto& checker) {
    switch (query.kind) {
      case EngineQuery::Kind::kSafetyCheck:
        return from_check(checker.check(query.violation, query.max_states,
                                        cancel, checkpoint));
      case EngineQuery::Kind::kFindState:
        return from_check(checker.find_state(query.goal, query.max_states,
                                             cancel, checkpoint));
      case EngineQuery::Kind::kRecoverability:
        return from_recoverability(checker.check_recoverability(
            query.goal, query.max_states, cancel));
    }
    return EngineResult{};  // unreachable
  };
  if (table == TableBackend::kCompact) {
    return dispatch(Checker<TtpcStarModel, util::CompactStateTable>(
        model, Threads{threads}));
  }
  return dispatch(Checker<TtpcStarModel>(model, Threads{threads}));
}

}  // namespace

EngineResult SerialEngine::run(const TtpcStarModel& model,
                               const EngineQuery& query,
                               const util::CancelToken* cancel,
                               const CheckpointConfig* checkpoint) const {
  return run_core(model, 1, options_.table, query, cancel, checkpoint);
}

EngineResult ParallelEngine::run(const TtpcStarModel& model,
                                 const EngineQuery& query,
                                 const util::CancelToken* cancel,
                                 const CheckpointConfig* checkpoint) const {
  return run_core(model, threads_, options_.table, query, cancel,
                  checkpoint);
}

RedundantEngine::RedundantEngine(std::unique_ptr<Engine> reference,
                                 std::unique_ptr<Engine> shadow)
    : reference_(std::move(reference)), shadow_(std::move(shadow)) {}

EngineResult RedundantEngine::run(const TtpcStarModel& model,
                                  const EngineQuery& query,
                                  const util::CancelToken* cancel,
                                  const CheckpointConfig* /*checkpoint*/)
    const {
  // Both engines share the one cancel token (the job has one deadline, not
  // one per engine); neither checkpoints — see supports_checkpoint().
  EngineResult reference_result;
  std::thread reference_thread([&] {
    reference_result = reference_->run(model, query, cancel, nullptr);
  });
  EngineResult shadow_result = shadow_->run(model, query, cancel, nullptr);
  reference_thread.join();
  return cross_check(reference_result, shadow_result);
}

EngineResult cross_check(const EngineResult& reference,
                         const EngineResult& shadow) {
  const bool r_ok = conclusive(reference.verdict);
  const bool s_ok = conclusive(shadow.verdict);

  EngineResult merged;
  bool reference_primary = true;
  if (r_ok && s_ok) {
    // Both answered: they must agree not just on the verdict but on the
    // whole exploration fingerprint — the engines are contractually
    // bit-identical (docs/CHECKER.md), so any delta means one of them is
    // wrong and the result cannot be trusted.
    const bool agree =
        reference.verdict == shadow.verdict &&
        reference.stats.states_explored == shadow.stats.states_explored &&
        reference.stats.transitions == shadow.stats.transitions &&
        reference.stats.max_depth == shadow.stats.max_depth &&
        reference.dead_states == shadow.dead_states &&
        reference.trace.size() == shadow.trace.size();
    merged = reference;  // the single-threaded reference is the primary
    if (!agree) {
      merged.verdict = Verdict::kEngineDivergence;
      merged.trace.clear();  // neither trace deserves trust
    }
  } else if (r_ok != s_ok) {
    // Exactly one engine concluded (the other hit its deadline or budget):
    // the conclusive answer stands — this is the availability half of the
    // redundancy tradeoff.
    reference_primary = r_ok;
    merged = r_ok ? reference : shadow;
  } else {
    // Neither concluded; report the attempt that got further.
    reference_primary =
        reference.stats.states_explored > shadow.stats.states_explored;
    merged = reference_primary ? reference : shadow;
  }
  merged.redundant = true;
  merged.secondary_stats = reference_primary ? shadow.stats : reference.stats;
  return merged;
}

}  // namespace tta::mc
