// The per-layer panel of a traced run. Each layer's public functions are
// called from here, in timed loops over the workload's own inputs, so the
// program needs no instrumentation:
//   mc        TtpcStarModel::successors/pack/unpack, the two visited
//             tables' hash/insert, the safety predicate, and Engine::run
//             spans per query kind;
//   svc       parse_request_line, JobSpec::digest, ResultCache::lookup,
//             PersistentCache::insert, result_json;
//   campaign  trial_fails (sequentially, which is also the campaign
//             oracle) and run_campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "common.h"
#include "mc/model.h"
#include "svc/job_result.h"
#include "svc/job_spec.h"

namespace perfbench {

struct McPanelInput {
  /// Model whose reachable states are sampled and whose safety query the
  /// engine spans run.
  tta::mc::ModelConfig model;
  /// State budget of the safety spans (a prefix of a large space).
  std::uint64_t budget = 50'000'000;
  /// The recoverability job timed as the recoverability span.
  tta::svc::JobSpec recov_job;
  unsigned threads = 1;
  std::uint64_t seed = 1;
  std::size_t sample_states = 20'000;
};

void mc_panel(const McPanelInput& in, Report& report, SpanLog& spans);

struct SvcPanelInput {
  std::vector<std::string> lines;             ///< job lines as served
  std::vector<tta::svc::JobResult> results;   ///< their answers
  std::string work_dir;                       ///< journal probe directory
};

void svc_panel(const SvcPanelInput& in, Report& report, SpanLog& spans);

struct CampaignPanelOut {
  double trial_us = 0.0;
  std::uint64_t failures = 0;  ///< Σ trial_fails over [0, trials)
};

/// Times `trials` sequential trial_fails calls.
CampaignPanelOut time_trials(const tta::campaign::CampaignSpec& spec,
                             std::uint64_t trials, SpanLog& spans);

/// Σ trial_fails over [0, trials), split over `threads` threads owned by
/// the benchmark (no util::ThreadPool): the campaign oracle of untraced
/// runs.
std::uint64_t oracle_failures(const tta::campaign::CampaignSpec& spec,
                              std::uint64_t trials, unsigned threads);

}  // namespace perfbench
