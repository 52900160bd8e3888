// tta_verifyd as a child process, and the open-loop load generator that
// drives it over loopback from one thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "util/socket.h"

namespace perfbench {

/// One tta_verifyd process with its own persistent-cache directory.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the server and waits for its port file. False on failure.
  bool start(const std::string& binary, const std::string& dir,
             unsigned workers);
  /// SIGTERM, then waits for the drain-and-exit (SIGKILL after 20 s).
  /// Records the process's peak RSS. Idempotent.
  void stop();
  std::uint16_t port() const { return port_; }
  /// User + system CPU seconds so far, read from /proc.
  double cpu_seconds() const;
  /// Peak RSS in MB: live from /proc while running, final after stop().
  double peak_rss_mb() const;
  /// A counter of the metrics dump the server prints when it exits
  /// (`key=N`, e.g. "retried"); 0 before stop() or when absent.
  std::uint64_t dumped_counter(const std::string& key) const;

 private:
  std::string dir_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double final_peak_rss_mb_ = 0.0;
};

/// One request of a load schedule.
struct Request {
  std::string line;     ///< full wire line, "id" included, no newline
  double due_s = 0.0;   ///< offset from the schedule's start
  bool hit = false;     ///< expected to be served from the cache
  const Answer* expected = nullptr;
};

/// What a schedule produced, per request index.
struct ServeResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;      ///< error rows and unanswered requests
  std::uint64_t late = 0;        ///< answered after the latency limit
  std::uint64_t from_cache = 0;
  double wall_s = 0.0;           ///< first due time to last answer
  double daemon_cpu_s = 0.0;
  /// (due time, latency from due time to answer) per answered request,
  /// sorted by due time.
  std::vector<std::pair<double, double>> hits;
  std::vector<std::pair<double, double>> misses;
  std::vector<double> all_latency_s;
  std::vector<double> lateness_s;      ///< send time minus due time
  std::vector<double> queue_s;         ///< the rows' queue_seconds
  std::uint64_t good = 0;        ///< correct and within the limit
};

/// Up to `connections` loopback connections to one server.
class LoadGen {
 public:
  bool connect(std::uint16_t port, unsigned connections);
  /// Sends every request at its due time (round-robin over the
  /// connections), reads answers until all are in or `drain_s` after the
  /// last due time, and checks each answer. Failures go to `report`.
  ServeResult run(const std::vector<Request>& schedule,
                  double latency_limit_s, double drain_s, Daemon& daemon,
                  Report& report, SpanLog* spans);

 private:
  struct Conn {
    tta::util::Socket sock;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
  };
  std::vector<Conn> conns_;
};

}  // namespace perfbench
