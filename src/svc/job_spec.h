// Declarative model-checking query descriptions for the verification job
// service.
//
// A JobSpec is everything needed to reproduce one checker invocation: the
// model configuration, the property to check, an engine choice, a state
// budget, and an optional soft deadline. Two specs that describe the same
// *semantic* query — same model, same property, same budget — have the
// same canonical byte encoding and therefore the same 64-bit digest, which
// is what the result cache is keyed on. Execution hints (engine, thread
// count, deadline) are deliberately excluded from the digest: the serial
// and parallel engines return identical verdicts for identical queries
// (docs/CHECKER.md), so a result computed by either engine satisfies both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "mc/checker.h"
#include "mc/model.h"

namespace tta::svc {

/// What kind of work a JobSpec describes. Verification jobs run a model
/// checker to an exact verdict; campaign jobs run a Monte Carlo fault
/// campaign (src/campaign) to a probability estimate with a confidence
/// interval. Both kinds flow through the same queue, sessions, caches, and
/// wire protocol.
enum class JobKind : std::uint8_t {
  kVerify = 0,
  kCampaign = 1,
};

const char* to_string(JobKind kind);

/// The queries the service can answer, all in terms of the paper's model.
enum class Property : std::uint8_t {
  /// Section 5.1 safety property: no single coupler fault may force an
  /// integrated node into the freeze state (exhaustive check).
  kNoIntegratedNodeFreezes = 0,
  /// Reachability: can the whole cluster reach the all-active state?
  /// (kViolated means the goal IS reachable, with a shortest witness.)
  kAllActiveReachable = 1,
  /// AG EF all-active: from every reachable state, full operation must
  /// still be reachable (the E11 recoverability analysis).
  kRecoverability = 2,
};

enum class EngineChoice : std::uint8_t {
  kSerial = 0,    ///< mc::Checker at one thread (canonical traces)
  kParallel = 1,  ///< mc::Checker at `threads` workers
  kAuto = 2,      ///< service picks by estimated cost
  /// Mirrors the paper's dual star couplers: the same query runs on BOTH
  /// engines concurrently and the verdicts + statistics are cross-checked.
  /// Disagreement surfaces as mc::Verdict::kEngineDivergence — a standing
  /// correctness tripwire for the lock-free table — while one engine
  /// stalling (deadline, budget) is masked by the other's conclusive
  /// answer. Costs roughly the sum of both engines.
  kRedundant = 3,
  /// Counterexample racing: seeded randomized workers (randomized DFS +
  /// shuffled-frontier BFS) race an exhaustive parallel sweep to the first
  /// violation; the winner trips a shared cancel token and the raw trace is
  /// canonicalized through the 1-thread checker, so verdicts, statistics, and
  /// trace lengths match every other engine (docs/CHECKER.md). Fast
  /// time-to-counterexample on VIOLATED configs; HOLDS costs one sweep.
  kSwarm = 4,
};

const char* to_string(Property property);
const char* to_string(EngineChoice engine);

struct JobSpec {
  JobKind kind = JobKind::kVerify;

  // ---- Verification kind (ignored for campaigns).
  mc::ModelConfig model;
  Property property = Property::kNoIntegratedNodeFreezes;
  EngineChoice engine = EngineChoice::kAuto;
  std::uint64_t max_states = 50'000'000;

  // ---- Campaign kind (ignored for verification).
  campaign::CampaignSpec campaign;

  /// Soft deadline in milliseconds; 0 = none. Exceeding it cancels the
  /// engine cooperatively and yields an explicit kInconclusive verdict
  /// with partial statistics — never a hang.
  std::uint32_t deadline_ms = 0;

  /// Threads for the parallel engine; 0 = the service default.
  unsigned threads = 0;

  /// Visited-table backend for the BFS engines ("table" in the JSON
  /// grammar). An execution hint like engine/threads/deadline: both
  /// backends are contractually bit-identical (docs/CHECKER.md), so it is
  /// excluded from canonical_bytes()/digest() and a cached result computed
  /// under either backend satisfies both.
  mc::TableBackend table_backend = mc::TableBackend::kFlat;

  /// Spec-level seed for the swarm engine's per-worker seed derivation
  /// (mc::swarm_worker_seed). An execution hint like engine/threads: the
  /// swarm engine canonicalizes its answer through the 1-thread checker, so
  /// the seed can only move diagnostics, never the verdict or trace —
  /// excluded from canonical_bytes()/digest(). Ignored by other engines.
  std::uint64_t seed = 0;

  /// Canonical little-endian byte encoding of the semantic fields, stable
  /// across processes and builds; starts with a format-version byte so
  /// field additions re-key cleanly. Three formats share the version-byte
  /// space: v1 is the original dual-coupler verification layout (every
  /// digest pinned before couplers became a parameter still holds), v2 is
  /// v1 plus the coupler-count byte (emitted only when num_couplers != 2),
  /// and 0x81 is the campaign encoding (campaign::append_canonical_bytes).
  std::vector<std::uint8_t> canonical_bytes() const;

  /// FNV-1a digest of canonical_bytes() — the result-cache key.
  std::uint64_t digest() const;

  /// Estimated reachable-state count, from the E4 scaling measurements
  /// (bench_mc_perf): ~26x per added node, a buffering-authority factor,
  /// and the fault-alphabet toggles. Used for cheapest-config-first
  /// ordering in the job queue; only the relative order matters.
  double estimated_cost() const;
};

// The JSON-lines grammar that produces JobSpecs (parse_job_line, the wire
// request extensions, and response formatting) lives in svc/wire.h — one
// parser and one formatter for the batch tool, the client, and the server.

}  // namespace tta::svc
