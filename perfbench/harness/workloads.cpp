#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "campaign/runner.h"
#include "layers.h"
#include "pins.h"
#include "serve.h"
#include "svc/async_service.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using tta::svc::AsyncService;
using tta::svc::JobResult;
using tta::svc::ServiceConfig;

/// One job of a workload: the wire line, its parsed spec and the answer
/// it must give.
struct Job {
  std::string line;
  tta::svc::JobSpec spec;
  Answer expected;
};

/// Builds a Job from a line whose answer is pinned (pins.h); a line with
/// no pin is a benchmark bug and exits.
Job pinned_job(const std::string& line);

/// Operations of one measured unit of an in-process workload: a cold
/// batch through a fresh AsyncService, then `hit_seconds` of closed-loop
/// re-submissions of the same jobs that the service must answer from its
/// cache.
struct UnitResult {
  double wall_s = 0.0;  ///< first submit to last answer of the cold batch
  double cpu_s = 0.0;   ///< process CPU during the cold batch
  std::vector<double> miss_latency_s;  ///< cold answers, submit to answer
  std::vector<double> service_s;  ///< cold answers, dispatch to answer
  std::vector<double> hit_latency_s;   ///< cached answers
  std::vector<double> queue_s;         ///< cold answers' queue wait
  std::vector<tta::svc::JobResult> results;  ///< cold answers, job order
  std::uint64_t good = 0;  ///< cold answers correct and within 60 s
  std::uint64_t retries = 0;
  std::uint64_t rejected = 0;
  double hit_ratio = 0.0;
};

/// Runs `jobs` as one unit through a fresh service with the default
/// ServiceConfig, as tta_verify_batch configures it. `spans` (traced runs
/// only) receives one "job" span per answer with its "queue" and "engine"
/// children.
UnitResult run_unit(const std::vector<Job>& jobs, double hit_seconds,
                    Report& report, SpanLog* spans);

/// The 20 E1 lines of tools/e1_grid.jobs, with `"nodes": 3` spliced in
/// when `three_nodes` (the serve_mix hits and the set-up warm-ups).
std::vector<Job> e1_jobs(const Options& opts, bool three_nodes);

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
/// In-process answers slower than this miss the goodput count.
constexpr double kBatchLatencyLimitS = 60.0;
/// serve_mix: answers slower than this miss the goodput count.
constexpr double kServeLatencyLimitS = 0.05;
/// serve_mix offered load: the misses keep the four workers about a
/// quarter busy, well below the knee (about 75k hits/s pipelined).
constexpr double kServeRateRps = 2000.0;
constexpr double kServeHitShare = 0.9;

/// The CI campaign smoke's fault dictionary: dual-coupler silence plus
/// clock drift on any node.
constexpr const char* kCampaignFaults =
    "coupler:0:silence:400000;coupler:1:silence:400000;"
    "node:*:clock_drift:250000";


/// Seconds of timed cache re-submissions per in-process unit (about
/// 20,000 of them): long enough that a short disturbance of the host moves
/// a few of the chunks chunked_quantile takes the median over.
double hit_seconds(const Options& opts) { return opts.reduced ? 0.02 : 0.5; }

double ms(double s) { return s * 1e3; }

void make_dir(const std::string& path) { ::mkdir(path.c_str(), 0755); }

/// The self-test's deliberately wrong expectation.
void maybe_inject(const Options& opts, Answer* answer) {
  if (!opts.inject_wrong_answer) return;
  if (answer->campaign) {
    ++answer->failures;
  } else {
    ++answer->states;
  }
}

/// End-to-end figures pooled over the measured units of a run.
struct Pool {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> job_p50_s;
  std::vector<double> cpu_s;
  std::vector<double> goodput_rps;
  /// Every hit and miss latency of the run, in s, in the order they were
  /// taken (see chunked_quantile).
  std::vector<double> hit_s;
  std::vector<double> miss_s;
  double peak_rss_mb = 0.0;
};

void add_end_to_end(Report& report, const Pool& p) {
  report.add("setup_s", median(p.setup_s), "s");
  report.add("wall_s", median(p.wall_s), "s");
  report.add("job_p50_s", median(p.job_p50_s), "s");
  report.add("cpu_s", median(p.cpu_s), "s");
  report.add("peak_rss_mb", p.peak_rss_mb, "MB");
  report.add("hit_p50_ms", ms(chunked_quantile(p.hit_s, 0.5)), "ms");
  report.add("hit_p99_ms", ms(chunked_quantile(p.hit_s, 0.99)), "ms");
  report.add("miss_p50_ms", ms(chunked_quantile(p.miss_s, 0.5)), "ms");
  report.add("miss_p99_ms", ms(chunked_quantile(p.miss_s, 0.99)), "ms");
  report.add("goodput_rps", median(p.goodput_rps), "1/s");
}

/// The svc job-path figures of one traced unit.
void add_unit_svc_metrics(Report& report, const UnitResult& u) {
  report.add("svc.queue_wait_p50_ms", ms(quantile(u.queue_s, 0.5)), "ms");
  report.add("svc.queue_wait_p99_ms", ms(quantile(u.queue_s, 0.99)), "ms");
  report.add("svc.retries", static_cast<double>(u.retries), "count");
  report.add("svc.rejected", static_cast<double>(u.rejected), "count");
  report.add("svc.hit_ratio", u.hit_ratio, "frac");
  report.add("svc.inproc_hit_us", 1e6 * quantile(u.hit_latency_s, 0.5), "us");
}

void add_self_times(Report& report, const SpanLog& spans) {
  report.add("self.svc_ms", ms(spans.total_self_s("job")), "ms");
  report.add("self.queue_ms", ms(spans.total_self_s("queue")), "ms");
  report.add("self.engine_ms", ms(spans.total_self_s("engine")), "ms");
}

void write_spans(const Options& opts, const SpanLog& spans) {
  if (opts.spans_path.empty()) return;
  if (spans.write(opts.spans_path)) {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 opts.spans_path.c_str());
  }
}

/// The campaign workload's job line: `trials` trials, never stopping
/// early (min_trials = max_trials, unreachable epsilon).
std::string campaign_line(const Options& opts, std::uint64_t trials) {
  return "{\"kind\": \"campaign\", \"nodes\": 4, \"channels\": 2, "
         "\"criterion\": \"all_active\", \"steps\": 32, \"seed\": " +
         std::to_string(opts.seed) + ", \"min_trials\": " +
         std::to_string(trials) + ", \"max_trials\": " +
         std::to_string(trials) +
         ", \"batch\": 512, \"epsilon_ppm\": 1, \"faults\": \"" +
         kCampaignFaults + "\", \"threads\": " +
         std::to_string(opts.threads) + "}";
}

tta::campaign::CampaignSpec campaign_spec(const Options& opts,
                                          std::uint64_t trials) {
  return parse_job_or_die(campaign_line(opts, trials)).campaign;
}

/// The campaign panel on a spec the workload itself does not run: times
/// the sequential trials and a pooled run_campaign, and checks that both
/// count the same failures.
void reference_campaign_panel(const Options& opts, Report& report,
                              SpanLog& spans) {
  const std::uint64_t trials = opts.reduced ? 2048 : 16384;
  const tta::campaign::CampaignSpec spec = campaign_spec(opts, trials);
  const CampaignPanelOut seq = time_trials(spec, trials, spans);
  tta::util::ThreadPool pool(opts.threads);
  const Clock::time_point t0 = Clock::now();
  const tta::campaign::CampaignResult run = tta::campaign::run_campaign(spec, &pool);
  const Clock::time_point t1 = Clock::now();
  spans.add("campaign.run_campaign", t0, t1, -1, 0);
  report.attempt();
  if (run.estimate.failures != seq.failures || run.estimate.trials != trials) {
    report.fail("reference campaign: run_campaign counted " +
                std::to_string(run.estimate.failures) + " failures, trial_fails " +
                std::to_string(seq.failures));
  }
  const double busy = seq.trial_us * 1e-6 * static_cast<double>(trials);
  report.add("campaign.trial_us", seq.trial_us, "us");
  report.add("campaign.pool_eff",
             busy / (seconds_between(t0, t1) * static_cast<double>(pool.size())),
             "frac");
  report.add("campaign.batches", static_cast<double>(run.batches), "count");
}

// ---- serve_mix pieces -------------------------------------------------

/// The serve_mix inputs: 20 hit lines (the E1 grid at 3 nodes) and the
/// miss bases, each with the answer a direct in-process Session gave.
struct ServeInputs {
  std::vector<Job> hits;
  std::vector<Job> miss_bases;
};

/// The 3-node safety jobs misses are made from (about 4 ms of engine
/// work each); a miss adds its own "max_states", far above the state
/// count, so it is a new query with the same answer.
std::vector<Job> miss_bases(const Options& opts) {
  std::vector<Job> bases;
  for (const Job& j : e1_jobs(opts, true)) {
    const tta::svc::JobSpec& s = j.spec;
    if (s.property != tta::svc::Property::kNoIntegratedNodeFreezes) continue;
    if (j.expected.states <= 3000) bases.push_back(j);
  }
  return bases;
}

/// Runs `jobs` through a direct in-process Session and replaces each
/// expectation by the Session's answer (which must itself match the pin).
void reference_answers(std::vector<Job>& jobs, Report& report) {
  const UnitResult u = run_unit(jobs, 0, report, nullptr);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].expected = answer_of(u.results[i]);
  }
}

std::vector<Request> warm_schedule(const std::vector<Job>& hits) {
  std::vector<Request> s;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    s.push_back({with_key(hits[i].line, "\"id\": \"" + std::to_string(i) + "\""),
                 0.0, false, &hits[i].expected});
  }
  return s;
}

std::vector<Request> mix_schedule(const ServeInputs& in, double rate_rps,
                                  double window_s, double hit_share,
                                  InputRng& rng, std::uint64_t* miss_counter) {
  const std::size_t n = static_cast<std::size_t>(rate_rps * window_s);
  std::vector<Request> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = "\"id\": \"" + std::to_string(i) + "\"";
    const double due = static_cast<double>(i) / rate_rps;
    if (rng.unit() < hit_share) {
      const Job& j = in.hits[rng.below(in.hits.size())];
      s.push_back({with_key(j.line, id), due, true, &j.expected});
    } else {
      const Job& j = in.miss_bases[rng.below(in.miss_bases.size())];
      const std::string budget =
          "\"max_states\": " + std::to_string(10'000'000 + (*miss_counter)++);
      s.push_back({with_key(with_key(j.line, budget), id), due, false, &j.expected});
    }
  }
  return s;
}

/// A started server with warm hits and open connections.
struct Serving {
  std::unique_ptr<Daemon> daemon = std::make_unique<Daemon>();
  LoadGen gen;
};

bool start_serving(const Options& opts, const std::string& dir,
                   const ServeInputs& in, Report& report, Serving* out) {
  make_dir(dir);
  if (!out->daemon->start(opts.verifyd, dir, opts.threads)) {
    report.attempt();
    report.fail("tta_verifyd did not start");
    return false;
  }
  if (!out->gen.connect(out->daemon->port(), opts.threads)) {
    report.attempt();
    report.fail("cannot connect to tta_verifyd");
    return false;
  }
  out->gen.run(warm_schedule(in.hits), 1e9, 30.0, *out->daemon, report, nullptr);
  return true;
}

/// The server figures of the per-layer panel, from one served window.
void add_server_metrics(Report& report, const ServeResult& r) {
  report.add("server.cpu_us_per_req",
             1e6 * r.daemon_cpu_s / static_cast<double>(std::max<std::uint64_t>(1, r.answered)),
             "us");
  report.add("gen.late_p99_ms", ms(quantile(r.lateness_s, 0.99)), "ms");
}

ServeInputs serve_inputs(const Options& opts, Report& report) {
  ServeInputs in;
  in.hits = e1_jobs(opts, true);
  in.miss_bases = miss_bases(opts);
  reference_answers(in.hits, report);
  reference_answers(in.miss_bases, report);
  maybe_inject(opts, &in.hits[0].expected);
  return in;
}

/// The server panel for workloads that do not serve: a short window of
/// the serve_mix traffic against a fresh server.
void reference_server_panel(const Options& opts, Report& report) {
  const ServeInputs in = serve_inputs(opts, report);
  Serving serving;
  if (!start_serving(opts, opts.work_dir + "/probe", in, report, &serving)) {
    add_server_metrics(report, ServeResult{});
    return;
  }
  InputRng rng(opts.seed);
  std::uint64_t counter = 0;
  const auto schedule = mix_schedule(in, kServeRateRps, opts.reduced ? 0.5 : 1.5,
                                     kServeHitShare, rng, &counter);
  const ServeResult r = serving.gen.run(schedule, kServeLatencyLimitS, 10.0,
                                        *serving.daemon, report, nullptr);
  serving.daemon->stop();
  add_server_metrics(report, r);
}

// ---- in-process batch workloads --------------------------------------

/// An in-process workload. Every service it starts has the default
/// ServiceConfig, as tta_verify_batch configures it.
struct BatchPlan {
  /// Builds the measured jobs (part of set-up).
  std::function<std::vector<Job>()> make_jobs;
  /// Jobs run once per set-up through a throwaway service.
  std::function<std::vector<Job>()> make_warmup;
  /// Traced runs: the workload's per-layer panels (mc, svc, campaign,
  /// server), given the traced unit.
  std::function<void(const UnitResult&, const std::vector<Job>&, SpanLog&)>
      panels;
};

void collect(const UnitResult& u, Pool& p) {
  std::fprintf(stderr,
               "perfbench: unit %zu: wall %.4f s, cpu %.3f s, job p50 %.4f s, "
               "hit p50/p99/max %.1f/%.1f/%.1f us\n",
               p.wall_s.size() + 1, u.wall_s, u.cpu_s, median(u.service_s),
               1e6 * quantile(u.hit_latency_s, 0.5), 1e6 * quantile(u.hit_latency_s, 0.99),
               1e6 * quantile(u.hit_latency_s, 1.0));
  p.wall_s.push_back(u.wall_s);
  p.cpu_s.push_back(u.cpu_s);
  p.job_p50_s.push_back(median(u.service_s));
  p.goodput_rps.push_back(static_cast<double>(u.good) / u.wall_s);
  p.hit_s.insert(p.hit_s.end(), u.hit_latency_s.begin(), u.hit_latency_s.end());
  p.miss_s.insert(p.miss_s.end(), u.service_s.begin(), u.service_s.end());
}

void run_batch(const Options& opts, Report& report, const BatchPlan& plan) {
  Pool pool;
  std::vector<Job> jobs;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point t0 = Clock::now();
    jobs = plan.make_jobs();
    run_unit(plan.make_warmup(), 0, report, nullptr);
    pool.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const double hits = hit_seconds(opts);

  if (!opts.trace) {
    const Clock::time_point start = Clock::now();
    do {
      collect(run_unit(jobs, hits, report, nullptr), pool);
    } while (seconds_between(start, Clock::now()) < opts.seconds);
    pool.peak_rss_mb = process_peak_rss_mb();
    add_end_to_end(report, pool);
    return;
  }

  // Traced: one plain unit, one traced unit, then the layer panels.
  const UnitResult plain = run_unit(jobs, hits, report, nullptr);
  SpanLog spans(Clock::now());
  const UnitResult traced = run_unit(jobs, hits, report, &spans);
  report.add("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "frac");
  add_unit_svc_metrics(report, traced);
  add_self_times(report, spans);
  plan.panels(traced, jobs, spans);
  write_spans(opts, spans);
}

SvcPanelInput svc_input(const Options& opts, const std::vector<Job>& jobs,
                        const std::vector<JobResult>& results) {
  SvcPanelInput in;
  for (const Job& j : jobs) in.lines.push_back(j.line);
  in.results = results;
  in.work_dir = opts.work_dir + "/journal";
  return in;
}

/// The mc panel on the E1 passive model of `e1` (row 0), timing its
/// full_shifting/oos1 recoverability job (row 18, HOLDS).
McPanelInput mc_input(const Options& opts, const std::vector<Job>& e1) {
  McPanelInput in;
  in.model = e1[0].spec.model;
  in.recov_job = e1[18].spec;
  in.threads = opts.threads;
  in.seed = opts.seed;
  in.sample_states = opts.reduced ? 2000 : 20000;
  return in;
}

Job pinned_job(const std::string& line) {
  Job job{line, parse_job_or_die(line), {}};
  const Answer* pin = find_pin(job.spec.digest());
  if (pin == nullptr) {
    std::fprintf(stderr, "perfbench: no pinned answer for %s\n", line.c_str());
    std::exit(2);
  }
  job.expected = *pin;
  return job;
}

std::vector<Job> e1_jobs(const Options& opts, bool three_nodes) {
  std::vector<Job> jobs;
  for (const std::string& line :
       read_job_lines(opts.repo_root + "/tools/e1_grid.jobs")) {
    jobs.push_back(pinned_job(three_nodes ? with_key(line, "\"nodes\": 3") : line));
  }
  if (jobs.size() != 20) {
    std::fprintf(stderr, "perfbench: tools/e1_grid.jobs has %zu jobs, not 20\n",
                 jobs.size());
    std::exit(2);
  }
  return jobs;
}

UnitResult run_unit(const std::vector<Job>& jobs, double hit_seconds,
                    Report& report, SpanLog* spans) {
  UnitResult u;
  AsyncService service{ServiceConfig{}};
  std::shared_ptr<tta::svc::Session> session = service.open_session();
  const std::size_t n = jobs.size();
  std::vector<Clock::time_point> submitted(n);
  std::vector<Clock::time_point> answered_at(n);
  std::vector<bool> answered(n, false);
  std::unordered_map<std::uint64_t, std::size_t> by_sequence;
  u.results.resize(n);
  report.attempt(n);

  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    submitted[i] = Clock::now();
    const tta::svc::JobHandle h = session->submit(jobs[i].spec);
    if (h.valid()) {
      by_sequence.emplace(h.sequence, i);
      ++expected;
    }
  }
  Clock::time_point last = t0;
  while (expected > 0) {
    std::optional<tta::svc::StreamedResult> item = session->results().next();
    if (!item) break;
    const auto it = by_sequence.find(item->handle.sequence);
    if (it == by_sequence.end()) continue;
    last = Clock::now();
    const std::size_t i = it->second;
    answered_at[i] = last;
    answered[i] = true;
    u.results[i] = std::move(item->result);
    --expected;
  }
  u.wall_s = seconds_between(t0, last);
  u.cpu_s = process_cpu_seconds() - cpu0;

  auto record = [&](const JobResult& r, Clock::time_point sub, Clock::time_point done,
                    std::uint64_t request) {
    if (!spans) return;
    const int job = spans->add("job", sub, done, -1, request);
    const Clock::time_point dispatched =
        sub + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(r.queue_seconds));
    spans->add("queue", sub, dispatched, job, request);
    const double engine = r.from_cache ? 0.0 : r.stats.seconds;
    spans->add("engine", dispatched,
               dispatched + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(engine)),
               job, request);
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (!answered[i]) {
      report.fail("job " + std::to_string(i) + " was never answered");
      continue;
    }
    const std::string why = answer_mismatch(observe(u.results[i]), jobs[i].expected);
    if (!why.empty()) report.fail(jobs[i].line + ": " + why);
    const double latency = seconds_between(submitted[i], answered_at[i]);
    if (why.empty() && latency <= kBatchLatencyLimitS) ++u.good;
    u.miss_latency_s.push_back(latency);
    u.service_s.push_back(std::max(0.0, latency - u.results[i].queue_seconds));
    u.queue_s.push_back(u.results[i].queue_seconds);
    record(u.results[i], submitted[i], answered_at[i], i);
  }

  // Closed-loop re-submissions: every one must come back from the cache.
  // The client polls instead of blocking, so its own wake-up is not part
  // of the round trip. Those of the first 0.3 s are not timed, so the
  // engines' teardown (freeing tables of up to a GB) is not what the timed
  // ones measure.
  const Clock::time_point timed_from = Clock::now() + std::chrono::milliseconds(300);
  const Clock::time_point timed_to =
      timed_from + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(hit_seconds));
  for (std::size_t r = 0; n > 0 && hit_seconds > 0 && Clock::now() < timed_to; ++r) {
    const Job& job = jobs[r % n];
    report.attempt();
    const Clock::time_point sub = Clock::now();
    const tta::svc::JobHandle h = session->submit(job.spec);
    std::optional<tta::svc::StreamedResult> item;
    while (h.valid() && !item && seconds_between(sub, Clock::now()) < 10.0) {
      item = session->results().try_next();
    }
    const Clock::time_point done = Clock::now();
    if (!item) {
      report.fail("cache re-submission got no answer");
      break;
    }
    std::string why = answer_mismatch(observe(item->result), job.expected);
    if (why.empty() && !item->result.from_cache) why = "not served from the cache";
    if (!why.empty()) report.fail("re-submitted " + job.line + ": " + why);
    if (sub < timed_from) continue;
    u.hit_latency_s.push_back(seconds_between(sub, done));
    record(item->result, sub, done, n + r);
  }

  u.retries = service.metrics().jobs_retried.load();
  u.rejected = service.metrics().jobs_rejected.load();
  u.hit_ratio = service.metrics().cache_hit_rate();
  session->drain();
  return u;
}

}  // namespace

void run_e1_grid(const Options& opts, Report& report) {
  BatchPlan plan;
  plan.make_jobs = [&] {
    std::vector<Job> jobs = e1_jobs(opts, opts.reduced);
    maybe_inject(opts, &jobs[0].expected);
    InputRng rng(opts.seed);
    rng.shuffle(jobs);
    return jobs;
  };
  plan.make_warmup = [&] { return e1_jobs(opts, true); };
  plan.panels = [&](const UnitResult& u, const std::vector<Job>& jobs,
                    SpanLog& spans) {
    const std::vector<Job> grid = e1_jobs(opts, opts.reduced);
    mc_panel(mc_input(opts, grid), report, spans);
    svc_panel(svc_input(opts, jobs, u.results), report, spans);
    reference_campaign_panel(opts, report, spans);
    reference_server_panel(opts, report);
  };
  run_batch(opts, report, plan);
}

void run_exhaustive_5node(const Options& opts, Report& report) {
  const std::string nodes = opts.reduced ? "3" : "5";
  const std::string line =
      "{\"authority\": \"passive\", \"property\": \"safety\", \"nodes\": " + nodes +
      ", \"engine\": \"parallel\", \"threads\": " + std::to_string(opts.threads) + "}";
  BatchPlan plan;
  plan.make_jobs = [&] {
    std::vector<Job> jobs = {pinned_job(line)};
    maybe_inject(opts, &jobs[0].expected);
    return jobs;
  };
  plan.make_warmup = [&] {
    return std::vector<Job>{e1_jobs(opts, opts.reduced)[0]};
  };
  plan.panels = [&](const UnitResult& u, const std::vector<Job>& jobs,
                    SpanLog& spans) {
    McPanelInput in = mc_input(opts, e1_jobs(opts, true));
    in.model = jobs[0].spec.model;
    if (!opts.reduced) in.budget = 1'200'000;
    mc_panel(in, report, spans);
    svc_panel(svc_input(opts, jobs, u.results), report, spans);
    reference_campaign_panel(opts, report, spans);
    reference_server_panel(opts, report);
  };
  run_batch(opts, report, plan);
}

void run_campaign(const Options& opts, Report& report) {
  const std::uint64_t trials = opts.reduced ? 4096 : 262144;
  const std::uint64_t warm_trials = opts.reduced ? 1024 : 16384;
  // The oracle: the same trials evaluated one by one on threads the
  // benchmark owns, outside the runner under test.
  const std::uint64_t oracle =
      oracle_failures(campaign_spec(opts, trials), trials, opts.threads);
  const std::uint64_t warm_oracle =
      oracle_failures(campaign_spec(opts, warm_trials), warm_trials, opts.threads);
  auto campaign_job = [&](std::uint64_t n, std::uint64_t failures) {
    Job job{campaign_line(opts, n), parse_job_or_die(campaign_line(opts, n)), {}};
    job.expected.campaign = true;
    job.expected.verdict = "HOLDS";
    job.expected.trials = n;
    job.expected.failures = failures;
    return job;
  };

  BatchPlan plan;
  plan.make_jobs = [&] {
    std::vector<Job> jobs = {campaign_job(trials, oracle)};
    maybe_inject(opts, &jobs[0].expected);
    return jobs;
  };
  plan.make_warmup = [&] {
    return std::vector<Job>{campaign_job(warm_trials, warm_oracle)};
  };
  plan.panels = [&](const UnitResult& u, const std::vector<Job>& jobs,
                    SpanLog& spans) {
    // No mc work in this workload: the panel runs on the E1 passive model
    // and times the 3-node recoverability job.
    McPanelInput mc = mc_input(opts, e1_jobs(opts, opts.reduced));
    mc.recov_job = e1_jobs(opts, true)[18].spec;
    mc_panel(mc, report, spans);
    // The journal probe needs verification results; the campaign itself
    // never reaches the persistent cache.
    const std::vector<Job> e1 = e1_jobs(opts, true);
    SvcPanelInput svc = svc_input(opts, jobs, u.results);
    const UnitResult e1_unit = run_unit(e1, 0, report, nullptr);
    for (std::size_t i = 0; i < e1.size(); ++i) {
      svc.lines.push_back(e1[i].line);
      svc.results.push_back(e1_unit.results[i]);
    }
    svc_panel(svc, report, spans);

    // Campaign layer on the workload's own trials: the sequential sum is
    // the traced run's oracle for the served failure count.
    const JobResult& served = u.results[0];
    const CampaignPanelOut seq = time_trials(jobs[0].spec.campaign, trials, spans);
    report.attempt();
    if (served.campaign.failures != seq.failures) {
      report.fail("campaign failures " + std::to_string(served.campaign.failures) +
                  " != sequential trial_fails sum " + std::to_string(seq.failures));
    }
    const double busy = seq.trial_us * 1e-6 * static_cast<double>(trials);
    report.add("campaign.trial_us", seq.trial_us, "us");
    report.add("campaign.pool_eff",
               busy / (served.stats.seconds * static_cast<double>(opts.threads)),
               "frac");
    report.add("campaign.batches", static_cast<double>(served.campaign.batches),
               "count");
    reference_server_panel(opts, report);
  };
  run_batch(opts, report, plan);
}

// ---- serve_mix ---------------------------------------------------------

void run_serve_mix(const Options& opts, Report& report) {
  const ServeInputs in = serve_inputs(opts, report);
  const double rate_rps = opts.reduced ? 200.0 : kServeRateRps;

  Pool pool;
  Serving serving;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
    if (rep > 0) {
      serving.daemon->stop();
      serving = Serving{};
    }
    const Clock::time_point t0 = Clock::now();
    if (!start_serving(opts, opts.work_dir + "/serve" + std::to_string(rep), in,
                       report, &serving)) {
      return;
    }
    pool.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  InputRng rng(opts.seed);
  std::uint64_t miss_counter = 0;
  auto window = [&](double seconds, SpanLog* spans) {
    const std::vector<Request> schedule =
        mix_schedule(in, rate_rps, seconds, kServeHitShare, rng, &miss_counter);
    ServeResult r = serving.gen.run(schedule, kServeLatencyLimitS, 10.0,
                                    *serving.daemon, report, spans);
    std::printf("serve_mix: offered_rps=%.0f hit_share=%.2f connections=%u "
                "window_s=%.1f sent=%llu answered=%llu rejected=%llu late=%llu "
                "errors=%llu\n",
                rate_rps, kServeHitShare, opts.threads, seconds,
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.answered),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.late),
                static_cast<unsigned long long>(r.errors));
    return r;
  };

  if (!opts.trace) {
    const ServeResult r = window(opts.seconds, nullptr);
    serving.daemon->stop();
    pool.wall_s.push_back(r.wall_s);
    pool.job_p50_s.push_back(median(r.all_latency_s));
    pool.cpu_s.push_back(r.daemon_cpu_s);
    pool.goodput_rps.push_back(static_cast<double>(r.good) / r.wall_s);
    for (const auto& [due, latency] : r.hits) pool.hit_s.push_back(latency);
    for (const auto& [due, latency] : r.misses) pool.miss_s.push_back(latency);
    pool.peak_rss_mb = serving.daemon->peak_rss_mb();
    add_end_to_end(report, pool);
    return;
  }

  // Traced: a plain window, a traced window, then the layer panels.
  const double part = std::max(1.0, opts.seconds / 2.0);
  const ServeResult plain = window(part, nullptr);
  SpanLog spans(Clock::now());
  const ServeResult traced = window(part, &spans);
  serving.daemon->stop();
  report.add("trace.overhead_frac",
             median(traced.all_latency_s) / median(plain.all_latency_s) - 1.0, "frac");
  add_self_times(report, spans);
  add_server_metrics(report, traced);

  // The job path as the server reported it; the in-process round trip of
  // the same hits through a Session with no socket.
  UnitResult u = run_unit(in.hits, hit_seconds(opts), report, nullptr);
  u.queue_s = traced.queue_s;
  u.hit_ratio = static_cast<double>(traced.from_cache) /
                static_cast<double>(std::max<std::uint64_t>(1, traced.answered));
  u.rejected = serving.daemon->dumped_counter("rejected") +
               serving.daemon->dumped_counter("quota_rejected");
  u.retries = serving.daemon->dumped_counter("retried");
  add_unit_svc_metrics(report, u);

  std::vector<Job> served = in.hits;
  served.insert(served.end(), in.miss_bases.begin(), in.miss_bases.end());
  std::vector<JobResult> results = u.results;
  const UnitResult bases = run_unit(in.miss_bases, 0, report, nullptr);
  results.insert(results.end(), bases.results.begin(), bases.results.end());
  mc_panel(mc_input(opts, e1_jobs(opts, true)), report, spans);
  svc_panel(svc_input(opts, served, results), report, spans);
  reference_campaign_panel(opts, report, spans);
  write_spans(opts, spans);
}

}  // namespace perfbench
