#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "svc/wire.h"

namespace perfbench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double chunked_quantile(const std::vector<double>& values, double q) {
  constexpr std::size_t kChunk = 1000;
  const std::size_t chunks = values.size() / kChunk;
  if (values.size() < kChunk + kChunk / 2) return quantile(values, q);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto from = values.begin() + static_cast<std::ptrdiff_t>(c * kChunk);
    const auto to = c + 1 == chunks ? values.end() : from + kChunk;
    per_chunk.push_back(quantile(std::vector<double>(from, to), q));
  }
  return median(std::move(per_chunk));
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int SpanLog::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t request) {
  return add_s(name, seconds_between(epoch_, start),
               seconds_between(epoch_, end), parent, request);
}

int SpanLog::add_s(const std::string& name, double start_s, double end_s,
                   int parent, std::uint64_t request) {
  spans_.push_back({name, start_s, end_s, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::total_self_s(const std::string& name) const {
  // Children of each span, then duration minus the union of the children's
  // intervals clipped to the parent.
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(static_cast<int>(i));
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      const double a = std::max(s.start_s, spans_[c].start_s);
      const double b = std::min(s.end_s, spans_[c].end_s);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_s;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    total += std::max(0.0, s.end_s - s.start_s - covered);
  }
  return total;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name.c_str(), s.start_s, s.end_s, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

Observed observe(const tta::svc::JobResult& r) {
  Observed o;
  o.verdict = tta::mc::to_string(r.verdict);
  o.states = r.stats.states_explored;
  o.transitions = r.stats.transitions;
  o.trace_len = r.trace.size();
  o.dead_states = r.dead_states;
  o.trials = r.campaign.trials;
  o.failures = r.campaign.failures;
  o.rejected = r.outcome.rejected;
  o.deadline_hit = r.stats.cancelled;
  o.from_cache = r.from_cache;
  return o;
}

Answer answer_of(const tta::svc::JobResult& r) {
  Answer a;
  a.verdict = tta::mc::to_string(r.verdict);
  a.states = r.stats.states_explored;
  a.transitions = r.stats.transitions;
  a.trace_len = r.trace.size();
  a.dead_states = r.dead_states;
  a.campaign = r.has_campaign;
  a.trials = r.campaign.trials;
  a.failures = r.campaign.failures;
  return a;
}

std::string answer_mismatch(const Observed& seen, const Answer& expected) {
  if (seen.rejected) return "rejected";
  if (seen.deadline_hit) return "deadline hit";
  if (seen.verdict == "INCONCLUSIVE") return "INCONCLUSIVE";
  if (seen.verdict != expected.verdict) {
    return "verdict " + seen.verdict + " != " + expected.verdict;
  }
  auto differs = [](const char* what, std::uint64_t got, std::uint64_t want) {
    return std::string(what) + " " + std::to_string(got) +
           " != " + std::to_string(want);
  };
  if (expected.campaign) {
    if (seen.trials != expected.trials) return differs("trials", seen.trials, expected.trials);
    if (seen.failures != expected.failures) {
      return differs("failures", seen.failures, expected.failures);
    }
    return "";
  }
  if (seen.states != expected.states) return differs("states", seen.states, expected.states);
  if (seen.transitions != expected.transitions) {
    return differs("transitions", seen.transitions, expected.transitions);
  }
  if (seen.trace_len != expected.trace_len) {
    return differs("trace_len", seen.trace_len, expected.trace_len);
  }
  if (seen.dead_states != expected.dead_states) {
    return differs("dead_states", seen.dead_states, expected.dead_states);
  }
  return "";
}

std::vector<std::string> read_job_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

tta::svc::JobSpec parse_job_or_die(const std::string& line) {
  tta::svc::JobSpec spec;
  std::string error;
  if (!tta::svc::parse_job_line(line, &spec, &error)) {
    std::fprintf(stderr, "perfbench: bad job line %s: %s\n", line.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return spec;
}

std::string with_key(const std::string& line, const std::string& key_value) {
  const std::size_t close = line.rfind('}');
  return line.substr(0, close) + ", " + key_value + line.substr(close);
}

InputRng::InputRng(std::uint64_t seed) : state_(seed ^ 0x6a09e667f3bcc909ull) {}

std::uint64_t InputRng::next() {
  // splitmix64: a benchmark-owned generator, so the inputs do not move
  // when the program's own RNG changes.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
