// Recoverability (AG EF) cross-checked against the naive FIFO BFS of
// tests/naive_bfs.h with an explicit (from, to) edge list and a reversed-
// edge closure. It shares only the model with the engine, so an error in
// the slot-table forward pass, the CSR edge recording or the backward
// closure shows up as a disagreement here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mc/engine.h"
#include "naive_bfs.h"
#include "svc/engine_factory.h"
#include "svc/wire.h"

namespace tta::mc {
namespace {

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
    const naive::RecoverabilityAnswer<WorldState> oracle =
        naive::recoverability(model,
                              svc::make_engine_query(spec, model).goal);

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
        if (name == "serial" || name == "parallel/1") {
          // At one thread the engine expands in the oracle's discovery
          // order, so it picks the very same witness, not just one of
          // equal length.
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
