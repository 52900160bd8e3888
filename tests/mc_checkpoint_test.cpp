// Checkpoint/resume for the BFS engine: an interrupted run resumed from
// its last level barrier must reach a bit-identical result — same verdict,
// same states/transitions/max_depth, same counterexample — and a damaged,
// mismatched, or missing checkpoint must fail softly (fresh start), never
// crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "util/compact_state_table.h"
#include "util/fail_point.h"

namespace tta::mc {
namespace {

ModelConfig config(guardian::Authority a, std::uint8_t nodes = 4) {
  ModelConfig cfg;
  cfg.authority = a;
  cfg.protocol.num_nodes = nodes;
  cfg.protocol.num_slots = nodes;
  return cfg;
}

std::string test_path(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  std::filesystem::path dir = std::filesystem::path(testing::TempDir()) /
                              "tta_checkpoint" / info->name();
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

CheckpointData sample_data() {
  CheckpointData data;
  data.mode = CheckpointData::Mode::kFindState;
  data.next_depth = 7;
  data.transitions = 12'345;
  data.dedup_skips = 99;
  for (std::uint64_t i = 0; i < 5; ++i) {
    CheckpointEntry e;
    e.key.words[0] = i + 1;
    e.key.words[3] = ~i;
    e.parent.words[0] = i;  // entry 0's "parent" is itself below
    e.choice = static_cast<std::uint32_t>(i * 3);
    e.depth = static_cast<std::uint32_t>(i);
    if (i == 0) {
      e.parent = e.key;
      e.flags = CheckpointEntry::kRootFlag;
    }
    data.visited.push_back(e);
  }
  data.frontier.push_back(data.visited[3].key);
  data.frontier.push_back(data.visited[4].key);
  return data;
}

TEST(CheckpointFile, SaveLoadRoundTripPreservesEverything) {
  CheckpointConfig cfg{test_path("run.ckpt"), /*binding=*/0xABCDEF01u, 1};
  const CheckpointData data = sample_data();
  ASSERT_TRUE(save_checkpoint(cfg, data));

  CheckpointData loaded;
  ASSERT_TRUE(load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));
  EXPECT_EQ(loaded.mode, data.mode);
  EXPECT_EQ(loaded.next_depth, data.next_depth);
  EXPECT_EQ(loaded.transitions, data.transitions);
  EXPECT_EQ(loaded.dedup_skips, data.dedup_skips);
  ASSERT_EQ(loaded.visited.size(), data.visited.size());
  for (std::size_t i = 0; i < data.visited.size(); ++i) {
    EXPECT_EQ(loaded.visited[i].key, data.visited[i].key) << i;
    EXPECT_EQ(loaded.visited[i].parent, data.visited[i].parent) << i;
    EXPECT_EQ(loaded.visited[i].choice, data.visited[i].choice) << i;
    EXPECT_EQ(loaded.visited[i].depth, data.visited[i].depth) << i;
    EXPECT_EQ(loaded.visited[i].flags, data.visited[i].flags) << i;
  }
  ASSERT_EQ(loaded.frontier.size(), data.frontier.size());
  EXPECT_EQ(loaded.frontier[0], data.frontier[0]);
  EXPECT_EQ(loaded.frontier[1], data.frontier[1]);
}

TEST(CheckpointFile, LoadFailsSoftlyOnEveryDamageMode) {
  CheckpointConfig cfg{test_path("run.ckpt"), 42, 1};
  CheckpointData loaded;

  // Missing file.
  EXPECT_FALSE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kSafetyCheck));

  const CheckpointData data = sample_data();
  ASSERT_TRUE(save_checkpoint(cfg, data));

  // Wrong mode: a reachability wavefront must not resume a safety check.
  EXPECT_FALSE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kSafetyCheck));

  // Wrong binding: a checkpoint for a different query is ignored.
  CheckpointConfig other = cfg;
  other.binding = 43;
  EXPECT_FALSE(
      load_checkpoint(other, &loaded, CheckpointData::Mode::kFindState));

  // Bit flip anywhere trips the CRC trailer.
  const std::vector<std::uint8_t> intact = read_file(cfg.path);
  for (std::size_t at : {std::size_t{0}, intact.size() / 2}) {
    auto damaged = intact;
    damaged[at] ^= 0x40;
    write_file(cfg.path, damaged);
    EXPECT_FALSE(
        load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState))
        << "flip at " << at;
  }

  // Torn tail (the crash the tmp+rename publication protects against, but
  // load must survive it anyway).
  auto torn = intact;
  torn.resize(torn.size() / 2);
  write_file(cfg.path, torn);
  EXPECT_FALSE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));

  // Zero-length file.
  write_file(cfg.path, {});
  EXPECT_FALSE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));

  // The intact bytes still load (the damage above never wrote through
  // save_checkpoint, so publication atomicity is not what saved us).
  write_file(cfg.path, intact);
  EXPECT_TRUE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));

  remove_checkpoint(cfg.path);
  EXPECT_FALSE(std::filesystem::exists(cfg.path));
  remove_checkpoint(cfg.path);  // idempotent on a missing file
}

TEST(CheckpointFile, PeekFailsSoftlyOnEveryDamageMode) {
  // peek_checkpoint reads only the fixed header — no CRC covers it — so
  // its own validation must reject everything short of a plausible
  // wavefront: missing and zero-length files, truncated headers (every
  // prefix shorter than the 65-byte v2 header), and structurally complete
  // headers whose visited/frontier counts are zero (a torn or zero-filled
  // write; a real wavefront always holds the root and one frontier state).
  CheckpointConfig cfg{test_path("peek.ckpt"), /*binding=*/42, 1};
  CheckpointPeek peek;

  // Missing file (the temp dir persists across runs, so clear residue).
  remove_checkpoint(cfg.path);
  EXPECT_FALSE(peek_checkpoint(cfg, &peek));

  const CheckpointData data = sample_data();
  ASSERT_TRUE(save_checkpoint(cfg, data));
  const std::vector<std::uint8_t> intact = read_file(cfg.path);

  // The intact file peeks, and reports the saved progress surface.
  ASSERT_TRUE(peek_checkpoint(cfg, &peek));
  EXPECT_EQ(peek.mode, CheckpointData::Mode::kFindState);
  EXPECT_EQ(peek.next_depth, 7u);
  EXPECT_EQ(peek.transitions, 12'345u);
  EXPECT_EQ(peek.visited, data.visited.size());
  EXPECT_EQ(peek.frontier, data.frontier.size());

  // Truncated headers: zero-length and every short prefix of the v2
  // header, including one byte shy of complete.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                 std::size_t{8}, std::size_t{56},
                                 std::size_t{64}}) {
    auto torn = intact;
    torn.resize(keep);
    write_file(cfg.path, torn);
    EXPECT_FALSE(peek_checkpoint(cfg, &peek)) << "kept " << keep;
  }

  // Zeroed count fields in an otherwise complete header: the v2 layout
  // puts the visited count at bytes [49, 57) and the frontier count at
  // [57, 65). Either being zero is garbage — progress must report
  // "unknown" rather than display it.
  for (const std::size_t offset : {std::size_t{49}, std::size_t{57}}) {
    auto zeroed = intact;
    std::fill(zeroed.begin() + static_cast<std::ptrdiff_t>(offset),
              zeroed.begin() + static_cast<std::ptrdiff_t>(offset + 8), 0);
    write_file(cfg.path, zeroed);
    EXPECT_FALSE(peek_checkpoint(cfg, &peek)) << "zeroed at " << offset;
  }

  // Wrong binding on the intact bytes.
  write_file(cfg.path, intact);
  CheckpointConfig other = cfg;
  other.binding = 43;
  EXPECT_FALSE(peek_checkpoint(other, &peek));

  // And the intact file still peeks after all of the above.
  EXPECT_TRUE(peek_checkpoint(cfg, &peek));
  remove_checkpoint(cfg.path);
}

TEST(CheckpointVerdict, EngineDivergenceHasAName) {
  EXPECT_STREQ(to_string(Verdict::kEngineDivergence), "ENGINE_DIVERGENCE");
}

// Interrupt a safety check with a state budget (leaving checkpoints at
// every completed level), then resume with the full budget: the final
// result must be bit-identical to an uninterrupted run.
TEST(SerialResume, SafetyCheckResumesBitIdentical) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  const auto baseline = Checker(model).check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kHolds);
  ASSERT_EQ(baseline.stats.states_explored, 110'956u);

  CheckpointConfig cfg{test_path("safety.ckpt"), 0xFEED, 1};
  auto partial = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/20'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);
  ASSERT_TRUE(std::filesystem::exists(cfg.path));

  auto resumed = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/50'000'000, nullptr,
                                      &cfg);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, baseline.verdict);
  EXPECT_EQ(resumed.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(resumed.stats.transitions, baseline.stats.transitions);
  EXPECT_EQ(resumed.stats.max_depth, baseline.stats.max_depth);
}

// The violated case additionally pins the counterexample: the resumed run
// must report the *same* minimal trace, which is the strongest evidence
// that the frontier order survived the round trip.
TEST(SerialResume, ViolatedTraceIsIdenticalAfterResume) {
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  const auto baseline = Checker(model).check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kViolated);
  ASSERT_FALSE(baseline.trace.empty());

  CheckpointConfig cfg{test_path("violated.ckpt"), 0xBEEF, 1};
  auto partial = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/10'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);

  auto resumed = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/50'000'000, nullptr,
                                      &cfg);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, Verdict::kViolated);
  EXPECT_EQ(resumed.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(resumed.stats.transitions, baseline.stats.transitions);
  ASSERT_EQ(resumed.trace.size(), baseline.trace.size());
  for (std::size_t i = 0; i < baseline.trace.size(); ++i) {
    EXPECT_EQ(model.pack(resumed.trace[i].before),
              model.pack(baseline.trace[i].before))
        << i;
    EXPECT_EQ(model.pack(resumed.trace[i].after),
              model.pack(baseline.trace[i].after))
        << i;
  }
}

TEST(SerialResume, FindStateResumesToSameWitness) {
  TtpcStarModel model(config(guardian::Authority::kTimeWindows));
  const std::size_t n = model.num_nodes();
  Checker<TtpcStarModel>::Goal goal = [n](const WorldState& w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
  const auto baseline = Checker(model).find_state(goal);
  ASSERT_EQ(baseline.verdict, Verdict::kViolated);  // goal reachable

  CheckpointConfig cfg{test_path("find.ckpt"), 0xF00D, 1};
  auto partial =
      Checker(model).find_state(goal, /*max_states=*/5'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);

  auto resumed = Checker(model).find_state(goal, /*max_states=*/50'000'000,
                                           nullptr, &cfg);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, baseline.verdict);
  EXPECT_EQ(resumed.stats.max_depth, baseline.stats.max_depth);
  ASSERT_EQ(resumed.trace.size(), baseline.trace.size());
  for (std::size_t i = 0; i < baseline.trace.size(); ++i) {
    EXPECT_EQ(model.pack(resumed.trace[i].after),
              model.pack(baseline.trace[i].after))
        << i;
  }
}

TEST(ParallelResume, SafetyCheckResumesBitIdentical) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  Checker baseline_checker(model, Threads{4});
  const auto baseline =
      baseline_checker.check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kHolds);

  CheckpointConfig cfg{test_path("psafety.ckpt"), 0xFEED, 1};
  Checker checker(model, Threads{4});
  auto partial = checker.check(no_integrated_node_freezes(),
                               /*max_states=*/20'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);
  ASSERT_TRUE(std::filesystem::exists(cfg.path));

  auto resumed = checker.check(no_integrated_node_freezes(),
                               /*max_states=*/50'000'000, nullptr, &cfg);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, baseline.verdict);
  EXPECT_EQ(resumed.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(resumed.stats.transitions, baseline.stats.transitions);
  EXPECT_EQ(resumed.stats.max_depth, baseline.stats.max_depth);
}

TEST(ParallelResume, ViolatedTraceSurvivesEngineHandoff) {
  // The checkpoint format is thread-count-agnostic: a wavefront saved at
  // one thread resumes at four (and vice versa) to the same verdict and
  // the same trace shape, because every run honors the serialized
  // frontier order.
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  const auto baseline = Checker(model).check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kViolated);

  CheckpointConfig cfg{test_path("handoff.ckpt"), 0xCAFE, 1};
  auto partial = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/10'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);

  Checker checker(model, Threads{4});
  auto resumed = checker.check(no_integrated_node_freezes(),
                               /*max_states=*/50'000'000, nullptr, &cfg);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, Verdict::kViolated);
  EXPECT_EQ(resumed.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(resumed.stats.max_depth, baseline.stats.max_depth);
  ASSERT_EQ(resumed.trace.size(), baseline.trace.size());
  for (std::size_t i = 0; i < baseline.trace.size(); ++i) {
    EXPECT_EQ(model.pack(resumed.trace[i].before),
              model.pack(baseline.trace[i].before))
        << i;
  }
}

/// Fail-point injection into checkpoint save/load. Disarms on exit so the
/// plain suites sharing this process stay clean.
class CheckpointFaultTest : public testing::Test {
 protected:
  void TearDown() override { util::FailPoints::instance().disarm_all(); }

  void arm(const std::string& config) {
    std::string error;
    ASSERT_TRUE(util::FailPoints::instance().arm(config, &error)) << error;
  }
};

TEST_F(CheckpointFaultTest, TornSaveAtEveryFrameBoundaryIsRejectedOnLoad) {
  // The file layout is: 65-byte v2 header, 73 bytes per visited entry,
  // 32 bytes per frontier state, 4-byte CRC trailer. Tear the write at
  // every frame boundary (plus inside the trailer): each torn file is
  // published (the injected tear models a crash that beat the atomic
  // rename), save reports failure, and load must reject the file — the
  // CRC trailer is either missing or computed over bytes that are gone.
  const CheckpointData data = sample_data();
  const std::uint64_t full =
      65 + 73 * data.visited.size() + 32 * data.frontier.size() + 4;

  std::vector<std::uint64_t> cuts = {65};
  for (std::size_t i = 1; i <= data.visited.size(); ++i) {
    cuts.push_back(65 + 73 * i);
  }
  for (std::size_t i = 1; i <= data.frontier.size(); ++i) {
    cuts.push_back(65 + 73 * data.visited.size() + 32 * i);
  }
  cuts.push_back(full - 4);  // everything but the CRC trailer
  cuts.push_back(full - 1);  // mid-trailer

  for (const std::uint64_t cut : cuts) {
    CheckpointConfig cfg{test_path("torn_" + std::to_string(cut) + ".ckpt"),
                         0xABCDEF01u, 1};
    arm("ckpt.save.torn=short-io(" + std::to_string(cut) + "):hits(1,1)");
    EXPECT_FALSE(save_checkpoint(cfg, data)) << "cut " << cut;
    ASSERT_TRUE(std::filesystem::exists(cfg.path)) << "cut " << cut;
    EXPECT_EQ(std::filesystem::file_size(cfg.path), cut) << "cut " << cut;

    CheckpointData loaded;
    EXPECT_FALSE(
        load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState))
        << "cut " << cut << " must not load";
    util::FailPoints::instance().disarm_all();
  }

  // Sanity: with nothing armed the same data round-trips.
  CheckpointConfig cfg{test_path("intact.ckpt"), 0xABCDEF01u, 1};
  ASSERT_TRUE(save_checkpoint(cfg, data));
  EXPECT_EQ(std::filesystem::file_size(cfg.path), full);
  CheckpointData loaded;
  EXPECT_TRUE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));
}

TEST_F(CheckpointFaultTest, CrcFlipOnSaveIsRejectedOnLoad) {
  // `ckpt.save.crc`: the file is complete and well-shaped but one trailer
  // bit flipped between compute and write — bit rot is invisible to the
  // saver (it reports success), so load is the layer that must refuse it.
  const CheckpointData data = sample_data();
  CheckpointConfig cfg{test_path("crcflip.ckpt"), 0xABCDEF01u, 1};
  arm("ckpt.save.crc=error:hits(1,1)");
  EXPECT_TRUE(save_checkpoint(cfg, data));
  ASSERT_TRUE(std::filesystem::exists(cfg.path));
  CheckpointData loaded;
  EXPECT_FALSE(
      load_checkpoint(cfg, &loaded, CheckpointData::Mode::kFindState));
}

/// Engine-level resume after a torn checkpoint, parameterized over the
/// visited-table backend: whatever the tear left on disk, the engine
/// starts fresh and still produces the bit-identical uninterrupted
/// result — on the flat table and the compact table alike.
class TornResumeTest : public testing::TestWithParam<TableBackend> {
 protected:
  void TearDown() override { util::FailPoints::instance().disarm_all(); }

  CheckResult run(const TtpcStarModel& model, std::uint64_t max_states,
                  const CheckpointConfig* cfg) {
    if (GetParam() == TableBackend::kCompact) {
      return Checker<TtpcStarModel, util::CompactStateTable>(model).check(
          no_integrated_node_freezes(), max_states, nullptr, cfg);
    }
    return Checker(model).check(no_integrated_node_freezes(), max_states,
                                nullptr, cfg);
  }
};

TEST_P(TornResumeTest, TornCheckpointMeansFreshStartBitIdentical) {
  TtpcStarModel model(config(guardian::Authority::kPassive, 3));
  const CheckResult baseline = run(model, 50'000'000, nullptr);
  ASSERT_EQ(baseline.verdict, Verdict::kHolds);

  // Interrupt with checkpointing armed to tear every save at byte 80 —
  // past the header, inside the first visited entry. The test dir is
  // stable across invocations and the resume run below leaves a complete
  // checkpoint behind, so drop any leftover or the "partial" run would
  // resume from it instead of exploring.
  CheckpointConfig cfg{test_path("torn.ckpt"), 7, 1};
  std::filesystem::remove(cfg.path);
  std::string error;
  ASSERT_TRUE(util::FailPoints::instance().arm(
      "ckpt.save.torn=short-io(80)", &error))
      << error;
  const CheckResult partial = run(model, 1'000, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);
  util::FailPoints::instance().disarm_all();
  ASSERT_TRUE(std::filesystem::exists(cfg.path));
  EXPECT_EQ(std::filesystem::file_size(cfg.path), 80u);

  // Resume from the torn file: fresh start (never a crash), and the fresh
  // run is bit-identical to never having checkpointed at all.
  const CheckResult resumed = run(model, 50'000'000, &cfg);
  EXPECT_FALSE(resumed.stats.resumed);
  EXPECT_EQ(resumed.verdict, baseline.verdict);
  EXPECT_EQ(resumed.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(resumed.stats.transitions, baseline.stats.transitions);
  EXPECT_EQ(resumed.stats.max_depth, baseline.stats.max_depth);
}

INSTANTIATE_TEST_SUITE_P(Backends, TornResumeTest,
                         testing::Values(TableBackend::kFlat,
                                         TableBackend::kCompact),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(Resume, CorruptCheckpointMeansFreshStartNotCrash) {
  TtpcStarModel model(config(guardian::Authority::kPassive, 3));
  CheckpointConfig cfg{test_path("corrupt.ckpt"), 7, 1};
  auto partial = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/1'000, nullptr, &cfg);
  ASSERT_EQ(partial.verdict, Verdict::kInconclusive);
  ASSERT_TRUE(std::filesystem::exists(cfg.path));

  auto damaged = read_file(cfg.path);
  damaged[damaged.size() / 3] ^= 0x01;
  write_file(cfg.path, damaged);

  auto res = Checker(model).check(no_integrated_node_freezes(),
                                  /*max_states=*/50'000'000, nullptr, &cfg);
  EXPECT_FALSE(res.stats.resumed);  // fresh start
  EXPECT_EQ(res.verdict, Verdict::kHolds);
  // A fresh start is always correct: same result as never checkpointing.
  const auto plain = Checker(model).check(no_integrated_node_freezes());
  EXPECT_EQ(res.stats.states_explored, plain.stats.states_explored);
}

/// A checkpoint whose file is intact — valid CRC, magic, binding and mode,
/// written by save_checkpoint — but whose contents do not describe a BFS
/// wavefront. Restore must reject it softly: the run starts fresh and
/// ends exactly like a run that never saw a checkpoint.
enum class Inconsistency {
  kDuplicateKey,
  kDanglingParent,
  kDepthOverflow,
  kMissingFrontierKey,
  kSelfParent,  ///< a parent cycle: trace reconstruction would never end
  kNextDepthOverflow,
  kWrongChoice,  ///< every non-root choice altered: replay cannot reach it
};

class InconsistentCheckpointTest
    : public testing::TestWithParam<std::tuple<Inconsistency, unsigned>> {};

TEST_P(InconsistentCheckpointTest, RestoreRejectsAndStartsFresh) {
  const auto [kind, threads] = GetParam();
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  const Checker checker(model, Threads{threads});
  const CheckResult baseline = checker.check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kViolated);

  // A genuine wavefront, then one targeted inconsistency written back
  // through save_checkpoint so every file-level check still passes.
  CheckpointConfig cfg{test_path("inconsistent.ckpt"), 0xD1CE, 1};
  std::filesystem::remove(cfg.path);
  ASSERT_EQ(checker
                .check(no_integrated_node_freezes(), /*max_states=*/2'000,
                       nullptr, &cfg)
                .verdict,
            Verdict::kInconclusive);
  CheckpointData data;
  ASSERT_TRUE(
      load_checkpoint(cfg, &data, CheckpointData::Mode::kSafetyCheck));
  const auto non_root = std::find_if(
      data.visited.begin(), data.visited.end(), [](const CheckpointEntry& e) {
        return !(e.flags & CheckpointEntry::kRootFlag);
      });
  ASSERT_NE(non_root, data.visited.end());
  util::PackedState absent = non_root->key;
  absent.words[0] ^= 1;
  for (const CheckpointEntry& e : data.visited) ASSERT_NE(e.key, absent);
  switch (kind) {
    case Inconsistency::kDuplicateKey: {
      const CheckpointEntry duplicate = *non_root;
      data.visited.push_back(duplicate);
      break;
    }
    case Inconsistency::kDanglingParent:
      non_root->parent = absent;
      break;
    case Inconsistency::kDepthOverflow:
      non_root->depth = UINT16_MAX + 1u;
      break;
    case Inconsistency::kMissingFrontierKey:
      data.frontier.push_back(absent);
      break;
    case Inconsistency::kSelfParent:
      non_root->parent = non_root->key;
      break;
    case Inconsistency::kNextDepthOverflow:
      data.next_depth = UINT16_MAX;
      break;
    case Inconsistency::kWrongChoice:
      for (CheckpointEntry& e : data.visited) {
        if (!(e.flags & CheckpointEntry::kRootFlag)) e.choice ^= 5;
      }
      break;
  }
  ASSERT_TRUE(save_checkpoint(cfg, data));
  ASSERT_TRUE(
      load_checkpoint(cfg, &data, CheckpointData::Mode::kSafetyCheck));

  const CheckResult res = checker.check(
      no_integrated_node_freezes(), /*max_states=*/50'000'000, nullptr, &cfg);
  EXPECT_FALSE(res.stats.resumed);
  EXPECT_EQ(res.verdict, baseline.verdict);
  EXPECT_EQ(res.stats.states_explored, baseline.stats.states_explored);
  EXPECT_EQ(res.stats.transitions, baseline.stats.transitions);
  EXPECT_EQ(res.stats.max_depth, baseline.stats.max_depth);
  ASSERT_EQ(res.trace.size(), baseline.trace.size());
  if (threads == 1) {
    for (std::size_t i = 0; i < baseline.trace.size(); ++i) {
      EXPECT_EQ(res.trace[i].after, baseline.trace[i].after) << i;
    }
  }
}

std::string inconsistency_name(
    const testing::TestParamInfo<std::tuple<Inconsistency, unsigned>>& info) {
  static const char* const kNames[] = {
      "DuplicateKey", "DanglingParent", "DepthOverflow", "MissingFrontierKey",
      "SelfParent", "NextDepthOverflow", "WrongChoice"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_" + std::to_string(std::get<1>(info.param)) + "threads";
}

INSTANTIATE_TEST_SUITE_P(
    Restore, InconsistentCheckpointTest,
    testing::Combine(testing::Values(Inconsistency::kDuplicateKey,
                                     Inconsistency::kDanglingParent,
                                     Inconsistency::kDepthOverflow,
                                     Inconsistency::kMissingFrontierKey,
                                     Inconsistency::kSelfParent,
                                     Inconsistency::kNextDepthOverflow,
                                     Inconsistency::kWrongChoice),
                     testing::Values(1u, 4u)),
    inconsistency_name);

}  // namespace
}  // namespace tta::mc
