#include "layers.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "campaign/runner.h"
#include "mc/checker.h"
#include "mc/engine.h"
#include "pins.h"
#include "svc/engine_factory.h"
#include "svc/persistent_cache.h"
#include "svc/result_cache.h"
#include "svc/service_config.h"
#include "svc/wire.h"
#include "util/compact_state_table.h"
#include "util/concurrent_state_table.h"

namespace perfbench {

namespace {

using tta::mc::detail::BfsNode;

/// Keeps the timed loops' results observable.
std::atomic<std::uint64_t> g_sink{0};

/// Time for one item, in ns: `pass` handles `items` items and is repeated
/// until at least `min_s` has been measured.
template <class F>
double ns_per_item(std::size_t items, F&& pass, double min_s = 0.15) {
  std::size_t done = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    done += items;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed * 1e9 / static_cast<double>(done);
}

/// Timed table inserts with memoized hashes, into a table as large as the
/// workload's own (so the probes miss the caches as the search's do): one
/// pass of new keys, then `dup_passes` passes of keys already present, the
/// BFS mix of one new state per expanded state. Each round builds a fresh
/// table untimed; rounds repeat until `min_s` has been measured.
template <class Table, class Hashes>
double insert_ns(std::size_t capacity, unsigned key_bits,
                 const std::vector<tta::util::PackedState>& keys,
                 const Hashes& hashes, unsigned dup_passes, double min_s = 0.05) {
  double timed = 0.0;
  std::size_t done = 0;
  std::uint64_t sink = 0;
  for (int round = 0; round < 3 || timed < min_s; ++round) {
    Table table(capacity, key_bits);
    const Clock::time_point t0 = Clock::now();
    for (unsigned pass = 0; pass <= dup_passes; ++pass) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        sink += table.insert(keys[i], BfsNode{}, hashes[i]).slot;
      }
    }
    timed += seconds_between(t0, Clock::now());
    done += keys.size() * (dup_passes + 1);
  }
  g_sink += sink;
  return timed * 1e9 / static_cast<double>(done);
}

struct TimedRun {
  tta::mc::EngineResult result;
  double seconds = 0.0;
};

TimedRun timed_run(const tta::mc::Engine& engine,
                   const tta::mc::TtpcStarModel& model,
                   const tta::mc::EngineQuery& query, const char* name,
                   SpanLog& spans) {
  const Clock::time_point t0 = Clock::now();
  TimedRun run{engine.run(model, query, nullptr, nullptr), 0.0};
  const Clock::time_point t1 = Clock::now();
  run.seconds = seconds_between(t0, t1);
  spans.add(name, t0, t1, -1, 0);
  return run;
}

std::string same_counts(const tta::mc::EngineResult& a,
                        const tta::mc::EngineResult& b) {
  if (a.verdict != b.verdict) return "verdicts differ";
  if (a.stats.states_explored != b.stats.states_explored) return "states differ";
  if (a.stats.transitions != b.stats.transitions) return "transitions differ";
  if (a.trace.size() != b.trace.size()) return "trace lengths differ";
  return "";
}

}  // namespace

void mc_panel(const McPanelInput& in, Report& report, SpanLog& spans) {
  namespace mc = tta::mc;
  namespace util = tta::util;
  const mc::TtpcStarModel model(in.model);

  // A sample of reachable states: random walks from the initial state.
  InputRng rng(in.seed);
  std::vector<mc::WorldState> sample;
  sample.reserve(in.sample_states);
  while (sample.size() < in.sample_states) {
    mc::WorldState s = model.initial();
    for (int step = 0; step < 200 && sample.size() < in.sample_states; ++step) {
      const std::vector<mc::Successor> succ = model.successors(s);
      if (succ.empty()) break;
      s = succ[rng.below(succ.size())].next;
      sample.push_back(s);
    }
  }
  std::vector<util::PackedState> packed;
  std::vector<std::pair<mc::WorldState, mc::WorldState>> edges;
  std::uint64_t successors = 0;
  for (const mc::WorldState& s : sample) {
    packed.push_back(model.pack(s));
    const std::vector<mc::Successor> succ = model.successors(s);
    successors += succ.size();
    if (edges.size() < 20'000) {
      for (const mc::Successor& t : succ) edges.emplace_back(s, t.next);
    }
  }
  const std::size_t n = sample.size();

  // Engine::run spans per query kind.
  mc::EngineQuery safety;
  safety.kind = mc::EngineQuery::Kind::kSafetyCheck;
  safety.violation = mc::no_integrated_node_freezes();
  safety.max_states = in.budget;
  const TimedRun serial =
      timed_run(mc::SerialEngine(), model, safety, "mc.engine.safety.serial", spans);
  const TimedRun parallel = timed_run(mc::ParallelEngine(in.threads), model, safety,
                                      "mc.engine.safety.parallel", spans);
  const mc::TtpcStarModel recov_model(in.recov_job.model);
  const tta::svc::EngineSelection recov_engine =
      tta::svc::make_engine(in.recov_job, tta::svc::ServiceConfig{});
  const TimedRun recov =
      timed_run(*recov_engine.engine, recov_model,
                tta::svc::make_engine_query(in.recov_job, recov_model),
                "mc.engine.recoverability", spans);

  // Unit costs of the four ledger rows, timed on the sampled states.
  const Clock::time_point loops_start = Clock::now();
  const double expand_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const mc::WorldState& s : sample) k += model.successors(s).size();
    g_sink += k;
  });
  const double pack_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const mc::WorldState& s : sample) k ^= model.pack(s).words[0];
    g_sink += k;
  });
  const double unpack_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const util::PackedState& p : packed) k += model.unpack(p).oos_errors_used;
    g_sink += k;
  });
  using Flat = util::ConcurrentStateTable<BfsNode>;
  using Compact = util::CompactStateTable<BfsNode>;
  const unsigned bits = model.packed_bits();
  const Flat flat_hasher(1u << 4, bits);
  const Compact compact_hasher(1u << 4, bits);
  const double hash_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const util::PackedState& p : packed) k ^= flat_hasher.hash(p).raw();
    g_sink += k;
  });
  std::vector<Flat::Hashed> flat_hashes;
  std::vector<Compact::Hashed> compact_hashes;
  for (const util::PackedState& p : packed) {
    flat_hashes.push_back(flat_hasher.hash(p));
    compact_hashes.push_back(compact_hasher.hash(p));
  }
  const std::size_t capacity = std::max<std::size_t>(
      4 * n, parallel.result.stats.table_capacity);
  const unsigned dup_passes = static_cast<unsigned>(
      std::max(0.0, static_cast<double>(successors) / static_cast<double>(n) - 1.0 + 0.5));
  const double insert_flat =
      insert_ns<Flat>(capacity, bits, packed, flat_hashes, dup_passes);
  const double insert_compact =
      insert_ns<Compact>(capacity, bits, packed, compact_hashes, dup_passes);
  const auto violation = mc::no_integrated_node_freezes();
  const double property_ns = ns_per_item(edges.size(), [&] {
    std::uint64_t k = 0;
    for (const auto& [a, b] : edges) k += violation(a, b) ? 1 : 0;
    g_sink += k;
  });
  spans.add("mc.layer_loops", loops_start, Clock::now(), -1, 0);

  // The spans' own answers: serial and parallel agree on a full search,
  // and the recoverability job gives its pinned answer.
  report.attempt(2);
  if (serial.result.verdict != mc::Verdict::kInconclusive) {
    const std::string why = same_counts(serial.result, parallel.result);
    if (!why.empty()) report.fail("mc panel: serial vs parallel: " + why);
  }
  const Answer* pin = find_pin(in.recov_job.digest());
  tta::svc::JobResult as_job;
  as_job.verdict = recov.result.verdict;
  as_job.stats = recov.result.stats;
  as_job.dead_states = recov.result.dead_states;
  as_job.trace = recov.result.trace;
  const std::string why = pin ? answer_mismatch(observe(as_job), *pin) : "no pin";
  if (!why.empty()) report.fail("mc panel: recoverability span: " + why);

  const mc::CheckStats& ps = parallel.result.stats;
  const double states = static_cast<double>(ps.states_explored);
  const double transitions = static_cast<double>(ps.transitions);
  const double ledger_s =
      1e-9 * (states * (unpack_ns + expand_ns) +
              transitions * (pack_ns + hash_ns + insert_flat + property_ns));
  const double threads = static_cast<double>(in.threads);
  const double serial_rate =
      static_cast<double>(serial.result.stats.states_explored) / serial.seconds;
  const double parallel_rate = states / parallel.seconds;

  report.add("mc.expand_ns", expand_ns, "ns");
  report.add("mc.succ_per_state", static_cast<double>(successors) / static_cast<double>(n),
             "count");
  report.add("mc.pack_ns", pack_ns, "ns");
  report.add("mc.unpack_ns", unpack_ns, "ns");
  report.add("mc.hash_ns", hash_ns, "ns");
  report.add("mc.insert_flat_ns", insert_flat, "ns");
  report.add("mc.insert_compact_ns", insert_compact, "ns");
  report.add("mc.bytes_per_state", static_cast<double>(ps.table_bytes) / states, "B");
  report.add("mc.probe_avg", ps.probe_avg, "count");
  report.add("mc.hash_recomputes", static_cast<double>(ps.hash_recomputes), "count");
  report.add("mc.property_ns", property_ns, "ns");
  report.add("mc.safety_states_per_s", parallel_rate, "1/s");
  report.add("mc.recov_states_per_s",
             static_cast<double>(recov.result.stats.states_explored) / recov.seconds,
             "1/s");
  report.add("mc.ledger_residual_frac", 1.0 - ledger_s / (parallel.seconds * threads),
             "frac");
  report.add("mc.parallel_eff", parallel_rate / (serial_rate * threads), "frac");
}

void svc_panel(const SvcPanelInput& in, Report& report, SpanLog& spans) {
  namespace svc = tta::svc;
  const Clock::time_point panel_start = Clock::now();
  const std::size_t n = in.lines.size();
  std::vector<std::string> wire;
  std::vector<svc::JobSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    wire.push_back(with_key(in.lines[i], "\"id\": \"" + std::to_string(i) + "\""));
    specs.push_back(parse_job_or_die(in.lines[i]));
  }

  const double parse_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const std::string& line : wire) {
      svc::WireRequest request;
      std::string error;
      k += svc::parse_request_line(line, &request, &error) ? 1 : 0;
    }
    g_sink += k;
  });
  const double digest_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (const svc::JobSpec& s : specs) k ^= s.digest();
    g_sink += k;
  });
  const double encode_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      k += svc::result_json(specs[i], in.results[i], 1, i, 0.0, std::to_string(i)).size();
    }
    g_sink += k;
  });
  svc::ResultCache cache(256);
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < n; ++i) {
    digests.push_back(specs[i].digest());
    cache.insert(digests.back(), in.results[i]);
  }
  const double lookup_ns = ns_per_item(n, [&] {
    std::uint64_t k = 0;
    for (std::uint64_t d : digests) {
      svc::JobResult out;
      k += cache.lookup(d, &out) ? 1 : 0;
    }
    g_sink += k;
  });

  // Journal appends: distinct conclusive verification results, each under
  // its own budget so every insert is a new record (and every 1024th
  // compacts, as in the server).
  std::vector<std::size_t> records;
  for (std::size_t i = 0; i < n; ++i) {
    const svc::JobResult& r = in.results[i];
    if (!r.has_campaign && (r.verdict == tta::mc::Verdict::kHolds ||
                            r.verdict == tta::mc::Verdict::kViolated)) {
      records.push_back(i);
    }
  }
  double append_ns = 0.0;
  if (!records.empty()) {
    ::mkdir(in.work_dir.c_str(), 0755);
    svc::PersistentCache journal(svc::PersistentCacheConfig{in.work_dir, 1024});
    const std::size_t appends = 2048;
    std::vector<svc::JobSpec> keyed;
    std::vector<svc::JobResult> results;
    for (std::size_t k = 0; k < appends; ++k) {
      const std::size_t i = records[k % records.size()];
      keyed.push_back(specs[i]);
      keyed.back().max_states = 20'000'000 + k;
      results.push_back(in.results[i]);
      results.back().digest = keyed.back().digest();
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < appends; ++k) journal.insert(keyed[k], results[k]);
    append_ns = seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(appends);
  }
  spans.add("svc.layer_loops", panel_start, Clock::now(), -1, 0);

  report.add("svc.parse_us", parse_ns / 1e3, "us");
  report.add("svc.digest_us", digest_ns / 1e3, "us");
  report.add("svc.encode_us", encode_ns / 1e3, "us");
  report.add("svc.cache_lookup_us", lookup_ns / 1e3, "us");
  report.add("svc.journal_append_us", append_ns / 1e3, "us");
}

CampaignPanelOut time_trials(const tta::campaign::CampaignSpec& spec,
                             std::uint64_t trials, SpanLog& spans) {
  CampaignPanelOut out;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < trials; ++i) {
    out.failures += tta::campaign::trial_fails(spec, i) ? 1 : 0;
  }
  const Clock::time_point t1 = Clock::now();
  spans.add("campaign.trial_fails", t0, t1, -1, 0);
  out.trial_us = seconds_between(t0, t1) * 1e6 / static_cast<double>(trials);
  return out;
}

std::uint64_t oracle_failures(const tta::campaign::CampaignSpec& spec,
                              std::uint64_t trials, unsigned threads) {
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t local = 0;
      for (std::uint64_t i = t; i < trials; i += threads) {
        local += tta::campaign::trial_fails(spec, i) ? 1 : 0;
      }
      failures += local;
    });
  }
  for (std::thread& th : pool) th.join();
  return failures.load();
}

}  // namespace perfbench
