// Flat vs compact visited-table backends, cross-checked end to end: both
// must produce bit-identical verdicts, exploration statistics, and trace
// lengths on the E1-grid models, including across a flat-written /
// compact-resumed checkpoint handoff. The backends differ only in how a
// slot stores its key (full PackedState vs Cleary quotient), so any
// divergence here is a table bug, not a model property.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "mc/checker.h"
#include "mc/engine.h"
#include "util/compact_state_table.h"

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
                              "tta_table_backend" / info->name();
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

using CompactChecker = Checker<TtpcStarModel, util::CompactStateTable>;

void expect_identical(const CheckResult& a, const CheckResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.stats.states_explored, b.stats.states_explored);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST(TableBackend, SerialKnownAnswerPinsMatchAcrossBackends) {
  // The E1 passive 4-node pin: exactly 110'956 reachable states, property
  // HOLDS. Both backends must land on the identical fingerprint.
  TtpcStarModel m(config(guardian::Authority::kPassive));
  const auto flat = Checker(m).check(no_integrated_node_freezes());
  const auto compact = CompactChecker(m).check(no_integrated_node_freezes());
  ASSERT_EQ(flat.verdict, Verdict::kHolds);
  ASSERT_EQ(flat.stats.states_explored, 110'956u);
  expect_identical(flat, compact);
}

TEST(TableBackend, ViolatedTraceLengthsMatchAcrossBackendsAndEngines) {
  // full_shifting violates safety; the minimal counterexample length is a
  // graph property and must not depend on the table backend or engine.
  TtpcStarModel m(config(guardian::Authority::kFullShifting));
  const auto flat = Checker(m).check(no_integrated_node_freezes());
  ASSERT_EQ(flat.verdict, Verdict::kViolated);
  ASSERT_FALSE(flat.trace.empty());

  const auto compact = CompactChecker(m).check(no_integrated_node_freezes());
  expect_identical(flat, compact);

  CompactChecker parallel(m, Threads{4});
  const auto par = parallel.check(no_integrated_node_freezes());
  expect_identical(flat, par);
}

TEST(TableBackend, ParallelCompactMatchesSerialFlat) {
  TtpcStarModel m(config(guardian::Authority::kPassive));
  const auto flat = Checker(m).check(no_integrated_node_freezes());
  CompactChecker parallel(m, Threads{4});
  const auto compact = parallel.check(no_integrated_node_freezes());
  expect_identical(flat, compact);
}

TEST(TableBackend, CompactOverflowRetryPathStaysIdentical) {
  // Disable proactive growth so the compact table must saturate mid-level
  // (displacement bound or load ceiling) and take the drop-and-retry path;
  // the result must still be bit-identical, and the retry cost must be
  // visible in hash_recomputes.
  TtpcStarModel m(config(guardian::Authority::kPassive));
  const auto reference = Checker(m).check(no_integrated_node_freezes());

  CompactChecker parallel(m, Threads{2}, /*initial_capacity=*/1u << 10);
  parallel.set_growth_headroom(0);
  const auto stressed = parallel.check(no_integrated_node_freezes());
  expect_identical(reference, stressed);
  EXPECT_GT(stressed.stats.hash_recomputes, 0u);
}

TEST(TableBackend, HashRecomputesProveMemoization) {
  TtpcStarModel m(config(guardian::Authority::kPassive));
  // Big enough table that no growth happens (110'956 < max_load(2^18)):
  // the memoized fast path recomputes nothing, on either backend.
  const auto flat_roomy =
      Checker(m, Threads{1}, /*initial_capacity=*/1u << 18)
          .check(no_integrated_node_freezes());
  EXPECT_EQ(flat_roomy.stats.hash_recomputes, 0u);
  const auto compact_roomy =
      CompactChecker(m, Threads{1}, /*initial_capacity=*/1u << 18)
          .check(no_integrated_node_freezes());
  EXPECT_EQ(compact_roomy.stats.hash_recomputes, 0u);

  // From the default 2^16 capacity the table must grow: the flat backend
  // re-hashes every kept entry per rebuild, the compact backend re-places
  // stored quotients and recomputes nothing.
  const auto flat_grown = Checker(m).check(no_integrated_node_freezes());
  EXPECT_GT(flat_grown.stats.hash_recomputes, 0u);
  const auto compact_grown =
      CompactChecker(m).check(no_integrated_node_freezes());
  EXPECT_EQ(compact_grown.stats.hash_recomputes, 0u);

  // The growth accounting never leaks into the bit-identity fingerprint.
  expect_identical(flat_roomy, flat_grown);
  expect_identical(flat_roomy, compact_grown);
}

TEST(TableBackend, CompactTableReportsSmallerFootprint) {
  TtpcStarModel m(config(guardian::Authority::kPassive));
  const auto flat = Checker(m).check(no_integrated_node_freezes());
  const auto compact = CompactChecker(m).check(no_integrated_node_freezes());
  ASSERT_GT(flat.stats.table_bytes, 0u);
  ASSERT_GT(compact.stats.table_bytes, 0u);
  // The compact backend's budget on the E1 pin model, at equal state count
  // (state counts are identical per the pins above): at most 28 bytes per
  // slot of the flat table's capacity, half of a 56-byte slot holding a
  // full 256-bit key. The flat slot is sized to the 119-bit key (32
  // bytes), so the bound is absolute; compact must still undercut flat.
  EXPECT_LE(compact.stats.table_bytes, flat.stats.table_capacity * 28);
  EXPECT_LT(compact.stats.table_bytes, flat.stats.table_bytes);
}

TEST(TableBackend, CrossCheckConfirmsNoBackendDivergence) {
  // The redundant-engine gate from the acceptance criteria: a flat serial
  // reference against a compact parallel shadow must merge cleanly, not
  // report kEngineDivergence.
  TtpcStarModel m(config(guardian::Authority::kPassive));
  EngineQuery query;
  query.kind = EngineQuery::Kind::kSafetyCheck;
  query.violation = no_integrated_node_freezes();

  SerialEngine reference;  // flat
  ParallelEngine shadow(4, CheckOptions{TableBackend::kCompact});
  const EngineResult merged = cross_check(
      reference.run(m, query, nullptr, nullptr),
      shadow.run(m, query, nullptr, nullptr));
  EXPECT_EQ(merged.verdict, Verdict::kHolds);
  EXPECT_TRUE(merged.redundant);
  EXPECT_EQ(merged.stats.states_explored, 110'956u);
  EXPECT_EQ(merged.secondary_stats.states_explored, 110'956u);
}

TEST(TableBackend, FlatToCompactCheckpointHandoffIsBitIdentical) {
  // A checkpoint written on the flat table resumes under the compact
  // backend (and at four threads) to the uninterrupted
  // reference result: the wavefront format stores full keys, so the
  // handoff is a pure re-insertion.
  TtpcStarModel m(config(guardian::Authority::kPassive));
  const auto baseline = Checker(m).check(no_integrated_node_freezes());
  ASSERT_EQ(baseline.verdict, Verdict::kHolds);

  {
    CheckpointConfig cfg{test_path("flat_to_compact.ckpt"), 0xC0FFEE, 1};
    auto partial = Checker(m).check(no_integrated_node_freezes(),
                                    /*max_states=*/20'000, nullptr, &cfg);
    ASSERT_EQ(partial.verdict, Verdict::kInconclusive);
    ASSERT_TRUE(std::filesystem::exists(cfg.path));

    auto resumed = CompactChecker(m).check(no_integrated_node_freezes(),
                                           /*max_states=*/50'000'000,
                                           nullptr, &cfg);
    EXPECT_TRUE(resumed.stats.resumed);
    expect_identical(baseline, resumed);
  }
  {
    // And the reverse: compact-written at four threads, flat-resumed at
    // one, for good measure.
    CheckpointConfig cfg{test_path("compact_to_flat.ckpt"), 0xC0FFEE, 1};
    CompactChecker writer(m, Threads{4});
    auto partial = writer.check(no_integrated_node_freezes(),
                                /*max_states=*/20'000, nullptr, &cfg);
    ASSERT_EQ(partial.verdict, Verdict::kInconclusive);

    auto resumed = Checker(m).check(no_integrated_node_freezes(),
                                    /*max_states=*/50'000'000, nullptr,
                                    &cfg);
    EXPECT_TRUE(resumed.stats.resumed);
    expect_identical(baseline, resumed);
  }
}

TEST(TableBackend, BackendNamesAreStable) {
  EXPECT_STREQ(to_string(TableBackend::kFlat), "flat");
  EXPECT_STREQ(to_string(TableBackend::kCompact), "compact");
}

}  // namespace
}  // namespace tta::mc
