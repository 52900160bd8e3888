// Shared pieces of the benchmark harness: options, the result report with
// its failure accounting, statistics, process measurements, the in-memory
// span log of traced runs, and the answer check every workload applies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/job_result.h"
#include "svc/job_spec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrinks to a second or two.
  bool reduced = false;
  /// Self-test hook: one expected answer is deliberately wrong, so the
  /// answer check must count a failure.
  bool inject_wrong_answer = false;
  /// Root of the checkout (holds tools/e1_grid.jobs).
  std::string repo_root = ".";
  /// The tta_verifyd binary built from the checkout.
  std::string verifyd;
  /// Temporary directory inside the checkout, removed at exit.
  std::string work_dir;
  /// Traced runs write their spans here (one JSON object per line).
  std::string spans_path;
  /// Worker threads and connections the load may use (nproc).
  unsigned threads = 1;
};

/// The final JSON line plus the failure accounting behind `correct`.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// One more operation whose answer was checked.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and says why on stderr (at most the
  /// first few reasons are printed).
  void fail(const std::string& why);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// The median over consecutive chunks of 1000 samples (the last chunk
/// takes the remainder) of each chunk's quantile `q`; with fewer than 1500
/// samples, the quantile of all. `values` are in the order they were
/// taken, so a disturbed stretch of a run moves one chunk, not the figure.
double chunked_quantile(const std::vector<double>& values, double q);

/// User + system CPU seconds of this process so far (all threads).
double process_cpu_seconds();
/// Peak resident set of this process so far, in MB.
double process_peak_rss_mb();

/// One timed span of a traced run. Spans of one request share `request`;
/// `parent` indexes the causing span (-1 for a root).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory during a traced run and written out at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, std::uint64_t request);
  /// Same, with times already in seconds since the epoch.
  int add_s(const std::string& name, double start_s, double end_s,
            int parent, std::uint64_t request);
  /// Total self time (duration minus the part covered by direct
  /// children) of the spans called `name`, in seconds.
  double total_self_s(const std::string& name) const;
  /// One JSON object per span, one per line.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The answer a verification or campaign job must give.
struct Answer {
  std::string verdict;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t trace_len = 0;
  std::uint64_t dead_states = 0;
  /// Campaign jobs: the trial and failure counts instead of the above.
  bool campaign = false;
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
};

/// What one answer row said, from an in-process JobResult or a wire row.
struct Observed {
  std::string verdict;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t trace_len = 0;
  std::uint64_t dead_states = 0;
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  bool rejected = false;
  bool deadline_hit = false;
  bool from_cache = false;
};

Observed observe(const tta::svc::JobResult& result);
/// Empty when `seen` is the expected answer, else the first difference.
/// Rejections, deadline hits and INCONCLUSIVE rows never match.
std::string answer_mismatch(const Observed& seen, const Answer& expected);
Answer answer_of(const tta::svc::JobResult& result);

/// Non-comment, non-blank lines of a JSON-lines job file.
std::vector<std::string> read_job_lines(const std::string& path);
/// Parses a job line; a line the grammar refuses is a benchmark bug.
tta::svc::JobSpec parse_job_or_die(const std::string& line);
/// `line` with `, <key_value>` spliced in before its closing brace.
std::string with_key(const std::string& line, const std::string& key_value);

/// Deterministic input generator seeded from --seed.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
