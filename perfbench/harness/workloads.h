// The four workloads. Each runs its set-up several times, then measures
// for Options::seconds, checks every answer, and adds its metrics to the
// report: the end-to-end metrics untraced, the per-layer ones traced.
#pragma once

#include "common.h"

namespace perfbench {

void run_e1_grid(const Options& opts, Report& report);
void run_exhaustive_5node(const Options& opts, Report& report);
void run_campaign(const Options& opts, Report& report);
void run_serve_mix(const Options& opts, Report& report);

}  // namespace perfbench
