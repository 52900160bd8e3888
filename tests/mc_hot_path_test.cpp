// Machine-independent counters of the BFS hot path. Wall time is not
// gated anywhere, but what the engine does per transition is: successors
// arrive with their visited-table key, so pack() runs only for the root and
// for trace replay, and a flat-table slot is sized to the model's key.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "mc/checker.h"
#include "util/concurrent_state_table.h"

namespace tta::mc {
namespace {

/// TtpcStarModel with a pack() call counter; everything else forwards.
class PackCountingModel {
 public:
  using State = WorldState;

  explicit PackCountingModel(const ModelConfig& config) : inner_(config) {}

  State initial() const { return inner_.initial(); }
  void successors(const State& s, std::vector<Successor>& out) const {
    inner_.successors(s, out);
  }
  std::pair<State, TransitionLabel> apply(const State& s,
                                          std::uint32_t choice) const {
    return inner_.apply(s, choice);
  }
  bool legal_choice(const State& s, std::uint32_t choice) const {
    return inner_.legal_choice(s, choice);
  }
  util::PackedState pack(const State& s) const {
    packs_.fetch_add(1, std::memory_order_relaxed);
    return inner_.pack(s);
  }
  State unpack(const util::PackedState& p) const { return inner_.unpack(p); }
  unsigned packed_bits() const { return inner_.packed_bits(); }

  std::uint64_t packs() const { return packs_.load(); }

 private:
  TtpcStarModel inner_;
  mutable std::atomic<std::uint64_t> packs_{0};
};

ModelConfig config(guardian::Authority a) {
  ModelConfig cfg;
  cfg.authority = a;
  return cfg;
}

TEST(HotPath, CheckerPacksOnlyTheRootAndTheTraceReplay) {
  for (unsigned threads : {1u, 4u}) {
    // E1 passive row: holds over 110,956 states, so the root is the only
    // state the engine packs.
    {
      PackCountingModel model(config(guardian::Authority::kPassive));
      const auto res = Checker(model, Threads{threads})
                           .check(no_integrated_node_freezes());
      ASSERT_EQ(res.verdict, Verdict::kHolds) << threads;
      ASSERT_EQ(res.stats.states_explored, 110'956u) << threads;
      EXPECT_EQ(model.packs(), 1u) << threads;
    }
    // E1 full_shifting row: the 11-step counterexample. Replay packs each
    // state on the path to the violating state to check it against the
    // table; the last, violating step is replayed without a key check.
    {
      PackCountingModel model(config(guardian::Authority::kFullShifting));
      const auto res = Checker(model, Threads{threads})
                           .check(no_integrated_node_freezes());
      ASSERT_EQ(res.verdict, Verdict::kViolated) << threads;
      ASSERT_EQ(res.trace.size(), 11u) << threads;
      EXPECT_EQ(model.packs(), 1u + (res.trace.size() - 1)) << threads;
    }
  }
}

TEST(HotPath, FlatSlotsAreSizedToTheKey) {
  // Key words, then the 12-byte BfsNode, then the status byte, padded to 8:
  // 2, 3 and 4 key words.
  const std::pair<unsigned, std::size_t> cases[] = {
      {119, 32}, {144, 40}, {256, 48}};
  for (const auto& [bits, slot_bytes] : cases) {
    const util::ConcurrentStateTable<detail::BfsNode> table(1u << 10, bits);
    EXPECT_EQ(table.memory_bytes() / table.capacity(), slot_bytes) << bits;
  }
  // The paper's 4-node model is the 119-bit case.
  EXPECT_EQ(TtpcStarModel(ModelConfig{}).packed_bits(), 119u);
}

}  // namespace
}  // namespace tta::mc
