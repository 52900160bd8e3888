// Swarm counterexample racing: N workers explore the same state space
// under independently seeded randomized successor orderings — even-index
// workers run randomized DFS, odd-index workers run shuffled-frontier
// BFS — racing one concurrent exhaustive mc::Checker sweep to the
// first property violation. The first finder trips a shared
// util::CancelToken and the losers stand down (LTSmin multi-core style:
// a VIOLATED configuration concludes as soon as ANY ordering stumbles
// onto a violating path, typically long before level-synchronized BFS
// has expanded every shallower level).
//
// Determinism contract (docs/CHECKER.md, "The swarm racing engine"):
// whatever ordering wins, the REPORTED result is canonical. A raw racer
// trace is first replayed choice-code by choice-code through
// Model::apply() to prove it is a real violating path, then discarded in
// favor of a fresh 1-thread mc::Checker run whose verdict, statistics, and
// shortest counterexample are bit-identical to SerialEngine's — so
// mc::cross_check against any other engine stays clean and the trace
// length is a function of the state graph alone, not of race timing.
// HOLDS can only come from the exhaustive sweep (a racer that drains its
// reachable set proves nothing the sweep will not also prove), and is
// reported verbatim — bit-identical at any thread count by the Checker's
// contract.
//
// Worker seeds derive counter-style from one spec-level seed (pure in
// (seed, worker)), so a swarm win is replayable: the same seed races the
// same orderings. The race outcome only moves the swarm_* diagnostic
// fields of CheckStats, never the canonical ones.
#pragma once

#include <cstdint>

#include "mc/engine.h"

namespace tta::mc {

/// Per-worker seed derivation: splitmix64-style mix of the spec-level
/// seed and the worker index. Pure in (seed, worker) — replaying a swarm
/// win needs only the spec seed. Exposed for tests and docs.
std::uint64_t swarm_worker_seed(std::uint64_t seed, unsigned worker);

class SwarmEngine final : public Engine {
 public:
  /// `racers` randomized workers (>= 1; even indices run randomized DFS,
  /// odd indices shuffled-frontier BFS) race one mc::Checker sweep on
  /// `sweep_threads` threads. `seed` is the spec-level seed the per-worker
  /// seeds derive from; it is an execution hint (digest-invariant) because
  /// the reported result is canonicalized independent of who won.
  SwarmEngine(unsigned racers, std::uint64_t seed,
              unsigned sweep_threads = 0, CheckOptions options = {});

  const char* name() const override { return "swarm"; }
  /// Racers keep private visited bookkeeping and the sweep may lose the
  /// race mid-level — neither produces a resumable canonical wavefront.
  bool supports_checkpoint() const override { return false; }
  unsigned racers() const { return racers_; }
  std::uint64_t seed() const { return seed_; }
  EngineResult run(const TtpcStarModel& model, const EngineQuery& query,
                   const util::CancelToken* cancel,
                   const CheckpointConfig* checkpoint) const override;

 private:
  unsigned racers_;
  std::uint64_t seed_;
  unsigned sweep_threads_;
  CheckOptions options_;
};

}  // namespace tta::mc
