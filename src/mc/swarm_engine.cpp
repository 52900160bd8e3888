#include "mc/swarm_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tta::mc {

namespace {

using Clock = std::chrono::steady_clock;

bool conclusive(Verdict verdict) {
  return verdict == Verdict::kHolds || verdict == Verdict::kViolated;
}

/// Everything the racers and the sweep share. The race token is the only
/// cancellation surface the workers see; the coordinator forwards the
/// caller's token into it, the first raw win trips it, and a conclusive
/// sweep trips it (losing racers can add nothing to an exhaustive
/// verdict).
struct RaceShared {
  util::CancelToken race;
  std::mutex mu;
  std::condition_variable cv;
  unsigned live = 0;  ///< workers (racers + sweep) still running
  bool winner_found = false;
  unsigned winner = 0;
  /// The raw win: choice codes replaying root -> violation. For a safety
  /// win the last code is the violating transition; for a reachability
  /// win the last code steps into the goal state.
  std::vector<std::uint32_t> winning_choices;
  bool tripped = false;           ///< someone already cancelled the field
  Clock::time_point tripped_at{};

  /// First-trip bookkeeping under mu; request_cancel itself is idempotent.
  void trip(std::unique_lock<std::mutex>& lock) {
    (void)lock;
    if (!tripped) {
      tripped = true;
      tripped_at = Clock::now();
    }
    race.request_cancel();
  }
};

/// One racer's exploration. Even workers run randomized DFS (the stack
/// order plus a Fisher-Yates shuffle of each state's successors), odd
/// workers run shuffled-frontier BFS (level order shuffled at every
/// barrier) — two different ways of decorrelating the search order from
/// the frontier order the exhaustive engines share. Bookkeeping is a plain
/// index over packed states with parent/choice records, so a win replays
/// as pure choice codes.
void race_worker(const TtpcStarModel& model, const EngineQuery& query,
                 unsigned index, std::uint64_t worker_seed, RaceShared* shared,
                 std::uint64_t* states_out) {
  util::Rng rng(worker_seed);
  const bool depth_first = (index % 2) == 0;

  struct Node {
    std::uint32_t parent = 0;
    std::uint32_t choice = 0;
  };
  std::unordered_map<util::PackedState, std::uint32_t> seen;
  std::vector<util::PackedState> keys;
  std::vector<Node> nodes;

  auto finish = [&] { *states_out = keys.size(); };
  auto path_to = [&](std::uint32_t at) {
    std::vector<std::uint32_t> choices;
    for (; at != 0; at = nodes[at].parent) choices.push_back(nodes[at].choice);
    std::reverse(choices.begin(), choices.end());
    return choices;
  };
  auto claim = [&](std::vector<std::uint32_t> choices) {
    std::unique_lock<std::mutex> lock(shared->mu);
    if (!shared->winner_found) {
      shared->winner_found = true;
      shared->winner = index;
      shared->winning_choices = std::move(choices);
    }
    shared->trip(lock);
    lock.unlock();
    shared->cv.notify_all();
  };

  const WorldState init = model.initial();
  const util::PackedState init_packed = model.pack(init);
  seen.emplace(init_packed, 0);
  keys.push_back(init_packed);
  nodes.push_back(Node{});
  if (query.kind == EngineQuery::Kind::kFindState && query.goal(init)) {
    finish();
    claim({});
    return;
  }

  // `open` is a stack for DFS and the current level for BFS.
  std::vector<std::uint32_t> open{0};
  std::vector<std::uint32_t> next_level;
  std::vector<Successor> succs;
  while (!open.empty()) {
    if (!depth_first) {
      // Shuffled-frontier BFS: randomize this level's expansion order.
      for (std::size_t i = open.size(); i > 1; --i) {
        std::swap(open[i - 1], open[rng.next_below(i)]);
      }
    }
    while (!open.empty()) {
      if (shared->race.cancelled()) {
        finish();
        return;
      }
      if (keys.size() > query.max_states) {
        // Private budget exhausted: this racer proves nothing either way;
        // the sweep (or another racer) still owns the verdict.
        finish();
        return;
      }
      const std::uint32_t cur = open.back();
      open.pop_back();
      const WorldState cur_state = model.unpack(keys[cur]);
      model.successors(cur_state, succs);
      if (depth_first) {
        // Randomized DFS: shuffle the successor order so the plunge path
        // (and the pushes below it) decorrelate from the model's choice
        // enumeration.
        for (std::size_t i = succs.size(); i > 1; --i) {
          std::swap(succs[i - 1], succs[rng.next_below(i)]);
        }
      }
      for (const Successor& succ : succs) {
        if (query.kind == EngineQuery::Kind::kSafetyCheck &&
            query.violation(cur_state, succ.next)) {
          std::vector<std::uint32_t> choices = path_to(cur);
          choices.push_back(succ.choice_code);
          finish();
          claim(std::move(choices));
          return;
        }
        const auto [it, inserted] =
            seen.emplace(succ.key, static_cast<std::uint32_t>(keys.size()));
        if (!inserted) continue;
        keys.push_back(succ.key);
        nodes.push_back(Node{cur, succ.choice_code});
        if (query.kind == EngineQuery::Kind::kFindState &&
            query.goal(succ.next)) {
          finish();
          claim(path_to(it->second));
          return;
        }
        (depth_first ? open : next_level).push_back(it->second);
      }
    }
    if (!depth_first) open = std::move(next_level);
    next_level.clear();
  }
  finish();
}

/// Replays a raw win through the model's own apply() — the proof that the
/// randomized search found a real violating path, independent of its
/// private bookkeeping. The canonical result still comes from the 1-thread
/// checker afterwards; this gate only decides whether the race counts as
/// won (and whether the canonical replay is justified to a reader
/// of the swarm_race_won diagnostic).
bool validate_raw_win(const TtpcStarModel& model, const EngineQuery& query,
                      const std::vector<std::uint32_t>& choices) {
  WorldState state = model.initial();
  if (choices.empty()) {
    return query.kind == EngineQuery::Kind::kFindState && query.goal(state);
  }
  for (std::size_t i = 0; i < choices.size(); ++i) {
    auto [next, label] = model.apply(state, choices[i]);
    (void)label;
    if (query.kind == EngineQuery::Kind::kSafetyCheck &&
        i + 1 == choices.size()) {
      return query.violation(state, next);
    }
    state = next;
  }
  return query.kind == EngineQuery::Kind::kFindState && query.goal(state);
}

}  // namespace

std::uint64_t swarm_worker_seed(std::uint64_t seed, unsigned worker) {
  // splitmix64 finalizer over seed + (worker+1) * golden gamma — the same
  // counter-style stream derivation the campaign subsystem uses for
  // per-trial RNGs: pure in (seed, worker), so a swarm win replays from
  // the spec seed alone.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(worker) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SwarmEngine::SwarmEngine(unsigned racers, std::uint64_t seed,
                         unsigned sweep_threads, CheckOptions options)
    : racers_(std::max(1u, racers)),
      seed_(seed),
      sweep_threads_(sweep_threads),
      options_(options) {}

EngineResult SwarmEngine::run(const TtpcStarModel& model,
                              const EngineQuery& query,
                              const util::CancelToken* cancel,
                              const CheckpointConfig* /*checkpoint*/) const {
  // Recoverability is a whole-graph analysis (forward sweep + backward
  // closure): there is no "first violation" to race to, so it goes
  // straight to the standard parallel engine.
  if (query.kind == EngineQuery::Kind::kRecoverability) {
    return ParallelEngine(sweep_threads_, options_)
        .run(model, query, cancel, nullptr);
  }

  const auto t0 = Clock::now();
  RaceShared shared;
  shared.live = racers_ + 1;

  std::vector<std::uint64_t> racer_states(racers_, 0);
  EngineResult sweep_result;
  std::vector<std::thread> threads;
  threads.reserve(racers_ + 1);
  // The exhaustive sweep: the standard Checker run at `sweep_threads_`,
  // whose HOLDS (and statistics) are bit-identical to the 1-thread run. It
  // races on the shared token like everyone else, and trips it when
  // conclusive.
  threads.emplace_back([&] {
    sweep_result = ParallelEngine(sweep_threads_, options_)
                       .run(model, query, &shared.race, nullptr);
    std::unique_lock<std::mutex> lock(shared.mu);
    if (conclusive(sweep_result.verdict)) shared.trip(lock);
    --shared.live;
    lock.unlock();
    shared.cv.notify_all();
  });
  for (unsigned w = 0; w < racers_; ++w) {
    threads.emplace_back([&, w] {
      race_worker(model, query, w, swarm_worker_seed(seed_, w), &shared,
                  &racer_states[w]);
      std::unique_lock<std::mutex> lock(shared.mu);
      --shared.live;
      lock.unlock();
      shared.cv.notify_all();
    });
  }

  // Coordinate: wait for the field to stand down, forwarding the caller's
  // cancellation (explicit or deadline) into the race token as it arrives.
  {
    std::unique_lock<std::mutex> lock(shared.mu);
    while (shared.live > 0) {
      shared.cv.wait_for(lock, std::chrono::milliseconds(2));
      if (cancel && cancel->cancelled_now()) shared.trip(lock);
    }
  }
  for (std::thread& t : threads) t.join();
  const auto joined_at = Clock::now();

  const bool race_won =
      shared.winner_found &&
      validate_raw_win(model, query, shared.winning_choices);

  EngineResult out;
  if (conclusive(sweep_result.verdict)) {
    // The exhaustive sweep got there first (every HOLDS lands here): its
    // answer is already canonical by the parallel engine's bit-identity
    // contract, so report it verbatim.
    out = std::move(sweep_result);
  } else if (race_won && !(cancel && cancel->cancelled_now())) {
    // A racer won: the raw randomized trace replayed clean, so the
    // violation is real — but its path is an artifact of one shuffle.
    // Canonicalize through the 1-thread checker: the reported verdict,
    // statistics, and shortest counterexample are bit-identical to
    // SerialEngine's, independent of which ordering won the race. The
    // caller's token still applies, so a deadline firing here yields an
    // honest kInconclusive.
    out = SerialEngine(options_).run(model, query, cancel, nullptr);
  } else {
    // No winner and no sweep verdict: the caller cancelled, or every
    // budget ran out. The sweep's partial stats are the honest report.
    out = std::move(sweep_result);
  }

  out.stats.swarm_workers = racers_;
  out.stats.swarm_race_won = race_won ? 1 : 0;
  for (unsigned w = 0; w < racers_; ++w) {
    if (race_won && shared.winner_found && shared.winner == w) continue;
    out.stats.swarm_loser_states += racer_states[w];
  }
  if (race_won) {
    out.stats.swarm_race_seconds =
        std::chrono::duration<double>(shared.tripped_at - t0).count();
  }
  if (shared.tripped) {
    out.stats.swarm_cancel_seconds =
        std::chrono::duration<double>(joined_at - shared.tripped_at).count();
  }
  return out;
}

}  // namespace tta::mc
