// Experiment E4 — model-checker performance.
//
// The paper reports both narrated traces were "generated in less than a
// minute on a 1.5 GHz AMD machine" with Cadence SMV. This bench reports the
// corresponding figures for our explicit-state checker: end-to-end trace
// generation time, exhaustive-verification time, and raw state-expansion
// throughput (states/second), plus how the state space scales with cluster
// size, and the serial-vs-parallel speedup of the level-synchronized BFS
// engine (docs/CHECKER.md).
//
// Pass --json=FILE for machine-readable summary results alongside the
// usual --benchmark_out for the microbenchmark timings. Pass --memory-only
// to run just the memory panel (the CI memory-budget smoke step does).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "mc/checker.h"
#include "mc/swarm_engine.h"
#include "util/compact_state_table.h"
#include "util/thread_pool.h"

namespace {

using namespace tta;

mc::ModelConfig config(guardian::Authority a, std::uint8_t nodes = 4) {
  mc::ModelConfig cfg;
  cfg.authority = a;
  cfg.protocol.num_nodes = nodes;
  cfg.protocol.num_slots = nodes;
  return cfg;
}

void record(bench::JsonWriter& json, const char* name,
            const mc::CheckStats& stats) {
  json.begin_entry(name);
  json.field("states", stats.states_explored);
  json.field("transitions", stats.transitions);
  json.field("depth", stats.max_depth);
  json.field("seconds", stats.seconds);
}

void print_summary(bench::JsonWriter& json) {
  std::printf("E4: checker statistics (paper: both traces < 60 s on a "
              "1.5 GHz AMD with SMV)\n\n");
  std::printf("%-34s %10s %12s %8s %10s\n", "query", "states", "transitions",
              "depth", "seconds");
  auto report = [&json](const char* name, const mc::CheckResult& res) {
    std::printf("%-34s %10llu %12llu %8llu %10.4f\n", name,
                static_cast<unsigned long long>(res.stats.states_explored),
                static_cast<unsigned long long>(res.stats.transitions),
                static_cast<unsigned long long>(res.stats.max_depth),
                res.stats.seconds);
    record(json, name, res.stats);
  };
  {
    mc::TtpcStarModel m(config(guardian::Authority::kSmallShifting));
    report("verify small_shifting (exhaust)",
           mc::Checker(m).check(mc::no_integrated_node_freezes()));
  }
  {
    auto cfg = config(guardian::Authority::kFullShifting);
    cfg.max_out_of_slot_errors = 1;
    mc::TtpcStarModel m(cfg);
    report("trace 1 (cold-start duplication)",
           mc::Checker(m).check(mc::no_integrated_node_freezes()));
  }
  {
    auto cfg = config(guardian::Authority::kFullShifting);
    cfg.max_out_of_slot_errors = 1;
    cfg.allow_coldstart_duplication = false;
    mc::TtpcStarModel m(cfg);
    report("trace 2 (C-state duplication)",
           mc::Checker(m).check(mc::no_integrated_node_freezes()));
  }
  for (std::uint8_t n : {std::uint8_t{3}, std::uint8_t{4}, std::uint8_t{5}}) {
    mc::TtpcStarModel m(config(guardian::Authority::kPassive, n));
    char name[64];
    std::snprintf(name, sizeof name, "verify passive, %u nodes", n);
    report(name, mc::Checker(m).check(mc::no_integrated_node_freezes()));
  }
  {
    // 6 nodes exceeds 50M reachable states — report the bounded exploration
    // rate instead of waiting minutes for exhaustion.
    mc::TtpcStarModel m(config(guardian::Authority::kPassive, 6));
    auto res = mc::Checker(m).check(mc::no_integrated_node_freezes(),
                                    /*max_states=*/2'000'000);
    std::printf("%-34s %10llu %12llu %8llu %10.4f  (budget-capped; "
                "exhaustive ~50M+ states)\n",
                "verify passive, 6 nodes",
                static_cast<unsigned long long>(res.stats.states_explored),
                static_cast<unsigned long long>(res.stats.transitions),
                static_cast<unsigned long long>(res.stats.max_depth),
                res.stats.seconds);
    record(json, "verify passive, 6 nodes (capped)", res.stats);
  }
  std::printf("\n");
}

void print_parallel_comparison(bench::JsonWriter& json) {
  // The headline scaling workload: 5-node passive exhaustive verification
  // (~3.4M states). Both engines run the same level-synchronized BFS, so
  // states/transitions/depth must agree exactly at every thread count —
  // anything else is flagged as a MISMATCH, making this a live
  // cross-validation as well as a speedup report.
  std::printf("serial vs parallel engine: verify passive, 5 nodes "
              "(exhaustive; hardware concurrency here: %u)\n\n",
              util::ThreadPool::hardware_threads());
  std::printf("%-22s %10s %12s %8s %10s %8s %11s\n", "engine", "states",
              "transitions", "depth", "seconds", "speedup", "dedup skips");

  mc::TtpcStarModel m(config(guardian::Authority::kPassive, 5));
  auto serial = mc::Checker(m).check(mc::no_integrated_node_freezes());
  std::printf("%-22s %10llu %12llu %8llu %10.4f %8s %11s\n",
              "serial (reference)",
              static_cast<unsigned long long>(serial.stats.states_explored),
              static_cast<unsigned long long>(serial.stats.transitions),
              static_cast<unsigned long long>(serial.stats.max_depth),
              serial.stats.seconds, "1.00x", "-");
  record(json, "parallel_compare serial", serial.stats);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    mc::Checker checker(m, mc::Threads{threads});
    auto res = checker.check(mc::no_integrated_node_freezes());
    double speedup = serial.stats.seconds / res.stats.seconds;
    bool same = res.stats.states_explored == serial.stats.states_explored &&
                res.stats.transitions == serial.stats.transitions &&
                res.stats.max_depth == serial.stats.max_depth &&
                res.holds() == serial.holds();
    char name[32], sp[16];
    std::snprintf(name, sizeof name, "parallel, %u threads", threads);
    std::snprintf(sp, sizeof sp, "%.2fx", speedup);
    std::printf("%-22s %10llu %12llu %8llu %10.4f %8s %11llu%s\n", name,
                static_cast<unsigned long long>(res.stats.states_explored),
                static_cast<unsigned long long>(res.stats.transitions),
                static_cast<unsigned long long>(res.stats.max_depth),
                res.stats.seconds, sp,
                static_cast<unsigned long long>(res.stats.dedup_skips),
                same ? "" : "  ** MISMATCH vs serial **");
    char entry[48];
    std::snprintf(entry, sizeof entry, "parallel_compare t%u", threads);
    record(json, entry, res.stats);
    json.field("speedup", speedup);
    json.field("dedup_skips", res.stats.dedup_skips);
    json.field("matches_serial", std::uint64_t{same});
  }
  std::printf("\n=> speedup scales with physical cores; on a single-core "
              "host the parallel engine only pays its coordination "
              "overhead. 'dedup skips' counts successors answered by the "
              "per-level dedup cache instead of a CAS probe of the shared "
              "state table.\n\n");
}

// ---- Swarm panel: time-to-counterexample vs the exhaustive BFS ----

void print_swarm_panel(bench::JsonWriter& json) {
  // The E1 grid's VIOLATED rows (tools/e1_grid.jobs): full_shifting safety
  // variants, where level-synchronized BFS must expand every level above
  // the violating one before it can report. The swarm engine races seeded
  // randomized orderings against that sweep; its time-to-counterexample is
  // CheckStats::swarm_race_seconds (start -> first replay-validated raw
  // win), and the reported trace must still replay to the serial engine's
  // canonical length — the panel checks that on every run.
  std::printf("swarm panel: time-to-counterexample on E1 VIOLATED rows "
              "(4 racers + 2-thread sweep vs 4-thread BFS)\n\n");
  std::printf("%-36s %10s %10s %10s %8s %7s\n", "config / seed", "bfs_s",
              "swarm_ttc", "ratio", "race_won", "trace");

  struct Row {
    const char* name;
    mc::ModelConfig cfg;
  };
  auto trace1 = config(guardian::Authority::kFullShifting);
  trace1.max_out_of_slot_errors = 1;
  auto trace2 = trace1;
  trace2.allow_coldstart_duplication = false;
  const Row rows[] = {
      {"full_shifting", config(guardian::Authority::kFullShifting)},
      {"full_shifting max_oos=1", trace1},
      {"full_shifting no_coldstart", trace2},
  };

  std::vector<double> ratios;
  for (const Row& row : rows) {
    mc::TtpcStarModel m(row.cfg);
    mc::EngineQuery query;
    query.kind = mc::EngineQuery::Kind::kSafetyCheck;
    query.violation = mc::no_integrated_node_freezes();

    const mc::EngineResult serial =
        mc::SerialEngine().run(m, query, nullptr, nullptr);
    const mc::EngineResult bfs =
        mc::ParallelEngine(4).run(m, query, nullptr, nullptr);

    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const mc::EngineResult swarm =
          mc::SwarmEngine(4, seed, 2).run(m, query, nullptr, nullptr);
      // When a racer won, its validated win time is the ttc; when the
      // sweep won the race outright, the whole run is.
      const double ttc = swarm.stats.swarm_race_won
                             ? swarm.stats.swarm_race_seconds
                             : swarm.stats.seconds;
      const double ratio =
          bfs.stats.seconds > 0.0 ? ttc / bfs.stats.seconds : 0.0;
      const bool canonical = swarm.verdict == serial.verdict &&
                             swarm.trace.size() == serial.trace.size();
      ratios.push_back(ratio);
      char label[64];
      std::snprintf(label, sizeof label, "%s seed=%llu", row.name,
                    static_cast<unsigned long long>(seed));
      std::printf("%-36s %10.4f %10.4f %9.2fx %8llu %7s\n", label,
                  bfs.stats.seconds, ttc, ratio,
                  static_cast<unsigned long long>(swarm.stats.swarm_race_won),
                  canonical ? "match" : "** MISMATCH **");
      char entry[80];
      std::snprintf(entry, sizeof entry, "swarm %s seed=%llu", row.name,
                    static_cast<unsigned long long>(seed));
      json.begin_entry(entry);
      json.field("bfs_seconds", bfs.stats.seconds);
      json.field("swarm_ttc_seconds", ttc);
      json.field("ttc_vs_bfs", ratio);
      json.field("race_won", swarm.stats.swarm_race_won);
      json.field("loser_states", swarm.stats.swarm_loser_states);
      json.field("cancel_seconds", swarm.stats.swarm_cancel_seconds);
      json.field("trace_len", std::uint64_t{swarm.trace.size()});
      json.field("serial_trace_len", std::uint64_t{serial.trace.size()});
      json.field("canonical_match", std::uint64_t{canonical});
    }
  }

  std::sort(ratios.begin(), ratios.end());
  const double median = ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  json.begin_entry("swarm_median");
  json.field("ttc_vs_bfs_median", median);
  std::printf("\n=> swarm median time-to-counterexample: %.2fx the "
              "4-thread BFS (target: < 0.5x); every row's trace length "
              "must match the serial canon.\n\n",
              median);
}

// ---- Memory panel: flat vs compact visited-table backends ----

/// Peak-RSS watermark (VmHWM) in kB; 0 off Linux.
std::uint64_t read_vm_hwm_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu", reinterpret_cast<unsigned long long*>(&kb));
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

/// Resets the VmHWM watermark so the next read prices one workload alone.
void reset_peak_rss() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f) {
    std::fputs("5", f);
    std::fclose(f);
  }
#endif
}

struct MemoryRow {
  mc::CheckStats stats;
  bool holds = false;
  std::uint64_t rss_delta_kb = 0;
};

template <template <class> class TableT>
MemoryRow memory_case(const mc::TtpcStarModel& m, unsigned threads) {
  MemoryRow row;
  reset_peak_rss();
  const std::uint64_t before = read_vm_hwm_kb();
  mc::Checker<mc::TtpcStarModel, TableT> checker(m, mc::Threads{threads});
  auto res = checker.check(mc::no_integrated_node_freezes());
  const std::uint64_t after = read_vm_hwm_kb();
  row.stats = res.stats;
  row.holds = res.holds();
  row.rss_delta_kb = after > before ? after - before : 0;
  return row;
}

void record_memory_row(bench::JsonWriter& json, const char* backend,
                       unsigned threads, const MemoryRow& row) {
  const double bytes_per_state =
      row.stats.states_explored
          ? static_cast<double>(row.stats.table_bytes) /
                static_cast<double>(row.stats.states_explored)
          : 0.0;
  const double states_per_sec =
      row.stats.seconds > 0.0
          ? static_cast<double>(row.stats.states_explored) /
                row.stats.seconds
          : 0.0;
  char name[48];
  std::snprintf(name, sizeof name, "memory %s t%u", backend, threads);
  json.begin_entry(name);
  json.field("backend", std::string(backend));
  json.field("threads", std::uint64_t{threads});
  json.field("states", row.stats.states_explored);
  json.field("holds", std::uint64_t{row.holds});
  json.field("seconds", row.stats.seconds);
  json.field("states_per_sec", states_per_sec);
  json.field("table_bytes", row.stats.table_bytes);
  json.field("table_capacity", row.stats.table_capacity);
  json.field("bytes_per_state", bytes_per_state);
  json.field("rss_peak_delta_kb", row.rss_delta_kb);
  json.field("hash_recomputes", row.stats.hash_recomputes);
  json.field("probe_max", row.stats.probe_max);
  json.field("probe_avg", row.stats.probe_avg);
  std::string hist = "[";
  for (std::size_t i = 0; i < row.stats.probe_hist.size(); ++i) {
    hist += (i ? "," : "") + std::to_string(row.stats.probe_hist[i]);
  }
  hist += "]";
  json.raw("probe_hist", hist);
  std::printf("%-10s %7u %10llu %10.4f %12.0f %12.1f %14llu %9llu %9.2f\n",
              backend, threads,
              static_cast<unsigned long long>(row.stats.states_explored),
              row.stats.seconds, states_per_sec, bytes_per_state,
              static_cast<unsigned long long>(row.rss_delta_kb),
              static_cast<unsigned long long>(row.stats.probe_max),
              row.stats.probe_avg);
}

void print_memory_panel(bench::JsonWriter& json) {
  // The largest HOLDS configuration of the E1 grid (tools/e1_grid.jobs) at
  // the paper's 4-node cluster: a small_shifting guardian with the full
  // out-of-slot replay budget. 4 nodes pack to 119 significant bits: the
  // flat backend stores the key's two significant words in 32-byte slots,
  // the compact backend 27-byte quotient slots. CI holds compact to at most
  // 66.15 bytes/state here — half of a flat table whose 56-byte slots hold
  // the full 256-bit key — and below the flat backend.
  std::printf("memory panel: flat vs compact visited table "
              "(small_shifting, max_oos 7, 4 nodes, safety)\n\n");
  std::printf("%-10s %7s %10s %10s %12s %12s %14s %9s %9s\n", "backend",
              "threads", "states", "seconds", "states/s", "bytes/state",
              "rss_delta_kB", "probe_max", "probe_avg");
  auto cfg = config(guardian::Authority::kSmallShifting);
  cfg.max_out_of_slot_errors = 7;
  mc::TtpcStarModel m(cfg);

  MemoryRow flat8, compact8;
  for (unsigned threads : {1u, 8u}) {
    MemoryRow flat = memory_case<util::ConcurrentStateTable>(m, threads);
    record_memory_row(json, "flat", threads, flat);
    if (threads == 8) flat8 = flat;
  }
  for (unsigned threads : {1u, 8u}) {
    MemoryRow compact = memory_case<util::CompactStateTable>(m, threads);
    record_memory_row(json, "compact", threads, compact);
    if (threads == 8) compact8 = compact;
  }

  const double flat_bps =
      static_cast<double>(flat8.stats.table_bytes) /
      static_cast<double>(flat8.stats.states_explored);
  const double compact_bps =
      static_cast<double>(compact8.stats.table_bytes) /
      static_cast<double>(compact8.stats.states_explored);
  const double ratio = compact_bps / flat_bps;
  const double throughput_ratio =
      flat8.stats.seconds > 0.0 && compact8.stats.seconds > 0.0
          ? flat8.stats.seconds / compact8.stats.seconds
          : 0.0;
  const bool identical =
      flat8.holds == compact8.holds &&
      flat8.stats.states_explored == compact8.stats.states_explored &&
      flat8.stats.transitions == compact8.stats.transitions &&
      flat8.stats.max_depth == compact8.stats.max_depth;
  json.begin_entry("memory_ratio");
  json.field("flat_bytes_per_state", flat_bps);
  json.field("compact_bytes_per_state", compact_bps);
  json.field("compact_vs_flat_bytes_per_state", ratio);
  json.field("compact_vs_flat_throughput_t8", throughput_ratio);
  json.field("backends_identical", std::uint64_t{identical});
  std::printf("\n=> compact bytes/state: %.1f (budget: <= 66.15); "
              "compact/flat bytes-per-state ratio: %.3f (budget: < 1); "
              "compact/flat throughput at 8 threads: %.2fx; "
              "backends %s\n\n",
              compact_bps, ratio, throughput_ratio,
              identical ? "bit-identical" : "** DIVERGED **");
}

/// Strips `flag` from argv; returns whether it was present.
bool take_flag(int* argc, char** argv, const char* flag) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

void BM_ExhaustiveVerification(benchmark::State& state) {
  auto cfg = config(guardian::Authority::kSmallShifting);
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::TtpcStarModel model(cfg);
    auto res = mc::Checker(model).check(mc::no_integrated_node_freezes());
    states = res.stats.states_explored;
    benchmark::DoNotOptimize(res.holds());
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExhaustiveVerification)->Unit(benchmark::kMillisecond);

void BM_ParallelExhaustiveVerification(benchmark::State& state) {
  auto cfg = config(guardian::Authority::kSmallShifting);
  auto threads = static_cast<unsigned>(state.range(0));
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::TtpcStarModel model(cfg);
    mc::Checker checker(model, mc::Threads{threads});
    auto res = checker.check(mc::no_integrated_node_freezes());
    states = res.stats.states_explored;
    benchmark::DoNotOptimize(res.holds());
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelExhaustiveVerification)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SuccessorGeneration(benchmark::State& state) {
  mc::TtpcStarModel model(config(guardian::Authority::kFullShifting));
  // A mid-startup state with real branching.
  mc::WorldState s = model.initial();
  s = model.successors(s)[7].next;
  s = model.successors(s)[5].next;
  for (auto _ : state) {
    auto succs = model.successors(s);
    benchmark::DoNotOptimize(succs.data());
  }
}
BENCHMARK(BM_SuccessorGeneration);

void BM_PackUnpack(benchmark::State& state) {
  mc::TtpcStarModel model(config(guardian::Authority::kFullShifting));
  mc::WorldState s = model.initial();
  s.nodes[1].state = ttpc::CtrlState::kActive;
  s.nodes[1].slot = 3;
  for (auto _ : state) {
    auto packed = model.pack(s);
    benchmark::DoNotOptimize(packed);
    auto unpacked = model.unpack(packed);
    benchmark::DoNotOptimize(unpacked.oos_errors_used);
  }
}
BENCHMARK(BM_PackUnpack);

void BM_Recoverability(benchmark::State& state) {
  // The E1 grid's small_shifting/oos1/no-reinit recoverability row on the
  // serial engine: forward pass with CSR edge recording plus the backward
  // closure, over the 110,956-state E1 space.
  auto cfg = config(guardian::Authority::kSmallShifting);
  cfg.max_out_of_slot_errors = 1;
  cfg.protocol.allow_reinit = false;
  mc::TtpcStarModel model(cfg);
  const std::size_t n = model.num_nodes();
  auto all_active = [n](const mc::WorldState& w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
  std::uint64_t states = 0;
  for (auto _ : state) {
    auto res = mc::Checker(model).check_recoverability(all_active);
    if (res.stats.states_explored != 110'956 ||
        res.stats.transitions != 875'440 || res.dead_states != 0 ||
        res.verdict != mc::Verdict::kHolds) {
      state.SkipWithError("recoverability pin moved");
      return;
    }
    states = res.stats.states_explored;
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Recoverability)->Unit(benchmark::kMillisecond);

void BM_StateSpaceByClusterSize(benchmark::State& state) {
  auto n = static_cast<std::uint8_t>(state.range(0));
  auto cfg = config(guardian::Authority::kPassive, n);
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::TtpcStarModel model(cfg);
    auto res = mc::Checker(model).check(mc::no_integrated_node_freezes());
    states = res.stats.states_explored;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_StateSpaceByClusterSize)
    ->DenseRange(3, 5, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = tta::bench::take_json_flag(&argc, argv);
  const bool memory_only = take_flag(&argc, argv, "--memory-only");
  tta::bench::JsonWriter json;
  if (!memory_only) {
    print_summary(json);
    print_parallel_comparison(json);
    print_swarm_panel(json);
  }
  print_memory_panel(json);
  if (!json_path.empty()) json.write(json_path, "bench_mc_perf");
  if (memory_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
