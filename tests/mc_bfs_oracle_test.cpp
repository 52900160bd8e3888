// The BFS engine against the naive FIFO oracle of tests/naive_bfs.h, at
// 1/2/4 threads on both table backends: verdicts, states, transitions,
// max_depth and trace lengths must equal the oracle's, and at one thread —
// where the single chunk is the whole frontier, expanded in FIFO order —
// the trace must be the oracle's, state by state.
#include <gtest/gtest.h>

#include <string>

#include "mc/checker.h"
#include "mc/monitor.h"
#include "naive_bfs.h"
#include "util/compact_state_table.h"

namespace tta::mc {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4};
constexpr TableBackend kBackends[] = {TableBackend::kFlat,
                                      TableBackend::kCompact};

template <class State>
void expect_matches_oracle(const naive::Answer<State>& oracle,
                           const CheckResultT<State>& res, unsigned threads,
                           const std::string& what) {
  EXPECT_EQ(res.verdict, oracle.found ? Verdict::kViolated : Verdict::kHolds)
      << what;
  EXPECT_EQ(res.stats.states_explored, oracle.states) << what;
  EXPECT_EQ(res.stats.transitions, oracle.transitions) << what;
  EXPECT_EQ(res.stats.max_depth, oracle.max_depth) << what;
  const std::size_t oracle_steps =
      oracle.path.empty() ? 0 : oracle.path.size() - 1;
  ASSERT_EQ(res.trace.size(), oracle_steps) << what;
  if (threads != 1) return;
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i].before, oracle.path[i]) << what << " step " << i;
    EXPECT_EQ(res.trace[i].after, oracle.path[i + 1]) << what << " step " << i;
  }
}

/// Runs `query` on the Checker at every thread count and backend.
template <class Model, class Query>
void for_each_engine(const Model& model, Query&& query) {
  for (TableBackend table : kBackends) {
    for (unsigned threads : kThreadCounts) {
      const std::string what = std::string(to_string(table)) + " threads=" +
                               std::to_string(threads);
      if (table == TableBackend::kCompact) {
        query(Checker<Model, util::CompactStateTable>(model, Threads{threads}),
              threads, what);
      } else {
        query(Checker<Model>(model, Threads{threads}), threads, what);
      }
    }
  }
}

struct SafetyRow {
  const char* name;
  guardian::Authority authority;
  unsigned max_oos;  ///< 0 = unconstrained
  bool allow_coldstart_duplication;
  std::size_t trace_len;  ///< 0 = the property holds
};

// The four §5.2 authority rows, then the E2/E3 counterexample
// configurations: unconstrained replays, one out-of-slot error, and one
// error with cold-start duplication forbidden (the C-state trace).
constexpr SafetyRow kSafetyRows[] = {
    {"passive", guardian::Authority::kPassive, 0, true, 0},
    {"time_windows", guardian::Authority::kTimeWindows, 0, true, 0},
    {"small_shifting", guardian::Authority::kSmallShifting, 0, true, 0},
    {"full_shifting", guardian::Authority::kFullShifting, 0, true, 11},
    {"full_shifting oos1", guardian::Authority::kFullShifting, 1, true, 14},
    {"full_shifting oos1 no-cs-dup", guardian::Authority::kFullShifting, 1,
     false, 19},
};

TEST(BfsOracle, SafetyRowsMatchAtEveryThreadCountAndBackend) {
  for (const SafetyRow& row : kSafetyRows) {
    ModelConfig cfg;
    cfg.authority = row.authority;
    if (row.max_oos != 0) cfg.max_out_of_slot_errors = row.max_oos;
    cfg.allow_coldstart_duplication = row.allow_coldstart_duplication;
    const TtpcStarModel model(cfg);
    const auto oracle =
        naive::check<TtpcStarModel>(model, no_integrated_node_freezes());
    EXPECT_EQ(oracle.path.empty() ? 0 : oracle.path.size() - 1,
              row.trace_len)
        << row.name;
    for_each_engine(model, [&](const auto& checker, unsigned threads,
                               const std::string& what) {
      expect_matches_oracle(oracle,
                            checker.check(no_integrated_node_freezes()),
                            threads, std::string(row.name) + " " + what);
    });
  }
}

TEST(BfsOracle, FindStateRowsMatchAtEveryThreadCountAndBackend) {
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kPassive;
  const TtpcStarModel model(cfg);
  const std::size_t n = model.num_nodes();
  const Checker<TtpcStarModel>::Goal all_active = [n](const WorldState& w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
  // Never reached: the search exhausts the space without a witness.
  const Checker<TtpcStarModel>::Goal unreachable = [](const WorldState& w) {
    return w.nodes[0].state == ttpc::CtrlState::kDownload;
  };
  for (const auto& [name, goal] :
       {std::pair{"all_active", all_active},
        std::pair{"unreachable", unreachable}}) {
    const auto oracle = naive::find_state<TtpcStarModel>(model, goal);
    for_each_engine(model, [&](const auto& checker, unsigned threads,
                               const std::string& what) {
      expect_matches_oracle(oracle, checker.find_state(goal), threads,
                            std::string(name) + " " + what);
    });
  }
}

TEST(BfsOracle, MonitoredModelMatchesToo) {
  // The engine is generic over the model concept, not just TtpcStarModel.
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kFullShifting;
  cfg.max_out_of_slot_errors = 1;
  const MonitoredModel model(cfg);
  const auto oracle =
      naive::check<MonitoredModel>(model, replay_victim_freezes());
  ASSERT_TRUE(oracle.found);
  for_each_engine(model, [&](const auto& checker, unsigned threads,
                             const std::string& what) {
    expect_matches_oracle(oracle, checker.check(replay_victim_freezes()),
                          threads, what);
  });
}

}  // namespace
}  // namespace tta::mc
