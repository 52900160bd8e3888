// Recoverability (AG EF) cross-checked against a deliberately naive
// reference: a FIFO BFS over an std::unordered_map of packed states with
// parent links, an explicit (from, to) edge list and a reversed-edge
// closure — no slot table, no growth, no checkpoints, no cancellation. It
// shares only the model with the engines, so an error in the slot-table
// forward pass, the CSR edge recording or the shared backward closure
// shows up as a disagreement here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mc/engine.h"
#include "svc/engine_factory.h"
#include "svc/wire.h"

namespace tta::mc {
namespace {

struct OracleResult {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t dead_states = 0;
  std::vector<WorldState> witness;  ///< states after each witness step
};

OracleResult naive_recoverability(
    const TtpcStarModel& model,
    const std::function<bool(const WorldState&)>& goal) {
  struct Parent {
    std::uint32_t index = 0;
    std::uint32_t depth = 0;
  };
  OracleResult out;
  std::unordered_map<util::PackedState, std::uint32_t> index;
  std::vector<util::PackedState> states;
  std::vector<Parent> parents;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<bool> is_goal;
  std::deque<std::uint32_t> frontier;

  const WorldState init = model.initial();
  index.emplace(model.pack(init), 0);
  states.push_back(model.pack(init));
  parents.push_back(Parent{0, 0});
  is_goal.push_back(goal(init));
  frontier.push_back(0);
  while (!frontier.empty()) {
    const std::uint32_t cur = frontier.front();
    frontier.pop_front();
    const std::uint32_t depth = parents[cur].depth;
    out.max_depth = std::max<std::uint64_t>(out.max_depth, depth);
    for (const Successor& succ : model.successors(model.unpack(states[cur]))) {
      ++out.transitions;
      const util::PackedState packed = model.pack(succ.next);
      auto [it, inserted] =
          index.emplace(packed, static_cast<std::uint32_t>(states.size()));
      if (inserted) {
        states.push_back(packed);
        parents.push_back(Parent{cur, depth + 1});
        is_goal.push_back(goal(succ.next));
        frontier.push_back(it->second);
      }
      edges.emplace_back(cur, it->second);
    }
  }
  out.states = states.size();

  // Backward closure: repeatedly mark every predecessor of a marked state.
  std::vector<std::vector<std::uint32_t>> preds(states.size());
  for (const auto& [from, to] : edges) preds[to].push_back(from);
  std::vector<bool> can_recover = is_goal;
  std::deque<std::uint32_t> back;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (is_goal[i]) back.push_back(i);
  }
  while (!back.empty()) {
    const std::uint32_t cur = back.front();
    back.pop_front();
    for (std::uint32_t pred : preds[cur]) {
      if (!can_recover[pred]) {
        can_recover[pred] = true;
        back.push_back(pred);
      }
    }
  }

  // Shortest witness: the first dead state in discovery order (discovery
  // order is BFS order, so no later dead state is shallower).
  std::uint32_t witness = 0;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (can_recover[i]) continue;
    if (out.dead_states++ == 0) witness = i;
  }
  if (out.dead_states > 0) {
    for (std::uint32_t at = witness; at != 0; at = parents[at].index) {
      out.witness.insert(out.witness.begin(), model.unpack(states[at]));
    }
  }
  return out;
}

svc::JobSpec job(const std::string& line) {
  svc::JobSpec spec;
  std::string error;
  EXPECT_TRUE(svc::parse_job_line(line, &spec, &error)) << error;
  return spec;
}

EngineResult run_engine(const Engine& engine, const std::string& line) {
  const svc::JobSpec spec = job(line);
  const TtpcStarModel model(spec.model);
  return engine.run(model, svc::make_engine_query(spec, model), nullptr,
                    nullptr);
}

// The E1 grid's recoverability rows (tools/e1_grid.jobs) at 3 nodes, and
// the 4-node small_shifting row, whose graph is the 110,956-state E1 space.
const char* const kOracleRows[] = {
    R"({"authority": "small_shifting", "property": "recoverability", "max_oos": 1, "allow_reinit": false, "nodes": 3})",
    R"({"authority": "full_shifting", "property": "recoverability", "max_oos": 1, "nodes": 3})",
    R"({"authority": "full_shifting", "property": "recoverability", "max_oos": 1, "allow_reinit": false, "nodes": 3})",
    R"({"authority": "small_shifting", "property": "recoverability", "max_oos": 1, "allow_reinit": false})",
};

TEST(RecoverabilityOracle, EnginesMatchTheNaiveReference) {
  for (const char* line : kOracleRows) {
    const svc::JobSpec spec = job(line);
    const TtpcStarModel model(spec.model);
    const OracleResult oracle = naive_recoverability(
        model, svc::make_engine_query(spec, model).goal);

    for (TableBackend table : {TableBackend::kFlat, TableBackend::kCompact}) {
      std::vector<std::pair<std::string, std::unique_ptr<Engine>>> engines;
      engines.emplace_back("serial",
                           std::make_unique<SerialEngine>(CheckOptions{table}));
      for (unsigned threads : {1u, 2u, 4u}) {
        engines.emplace_back(
            "parallel/" + std::to_string(threads),
            std::make_unique<ParallelEngine>(threads, CheckOptions{table}));
      }
      for (const auto& [name, engine] : engines) {
        const std::string where =
            std::string(line) + " " + name + " " + to_string(table);
        const EngineResult res = run_engine(*engine, line);
        EXPECT_EQ(res.verdict, oracle.dead_states == 0 ? Verdict::kHolds
                                                       : Verdict::kViolated)
            << where;
        EXPECT_EQ(res.stats.states_explored, oracle.states) << where;
        EXPECT_EQ(res.stats.transitions, oracle.transitions) << where;
        EXPECT_EQ(res.stats.max_depth, oracle.max_depth) << where;
        EXPECT_EQ(res.dead_states, oracle.dead_states) << where;
        ASSERT_EQ(res.trace.size(), oracle.witness.size()) << where;
        if (name == "serial") {
          // The serial engine expands in the oracle's discovery order, so
          // it picks the very same witness, not just one of equal length.
          for (std::size_t i = 0; i < res.trace.size(); ++i) {
            EXPECT_EQ(res.trace[i].after, oracle.witness[i]) << where;
          }
        }
      }
    }
  }
}

TEST(RecoverabilityOracle, LargeE1RowsKeepTheirPinnedCounts) {
  struct Pin {
    const char* line;
    std::uint64_t states, transitions, max_depth, dead_states;
    std::size_t witness;
  };
  const Pin pins[] = {
      {R"({"authority": "full_shifting", "property": "recoverability", "max_oos": 1})",
       939'674, 8'720'751, 57, 0, 0},
      {R"({"authority": "full_shifting", "property": "recoverability", "max_oos": 1, "allow_reinit": false})",
       922'438, 6'869'096, 57, 359'157, 10},
  };
  // The small rows above cover every engine and backend against the
  // oracle; here one serial and one parallel run keep the big graphs'
  // numbers pinned.
  const SerialEngine serial;
  const ParallelEngine parallel(2, CheckOptions{TableBackend::kCompact});
  for (const Pin& pin : pins) {
    for (const Engine* engine : {static_cast<const Engine*>(&serial),
                                 static_cast<const Engine*>(&parallel)}) {
      const std::string where = std::string(pin.line) + " " + engine->name();
      const EngineResult res = run_engine(*engine, pin.line);
      EXPECT_EQ(res.stats.states_explored, pin.states) << where;
      EXPECT_EQ(res.stats.transitions, pin.transitions) << where;
      EXPECT_EQ(res.stats.max_depth, pin.max_depth) << where;
      EXPECT_EQ(res.dead_states, pin.dead_states) << where;
      EXPECT_EQ(res.trace.size(), pin.witness) << where;
    }
  }
}

}  // namespace
}  // namespace tta::mc
