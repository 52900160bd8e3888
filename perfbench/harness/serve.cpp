#include "serve.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// The raw text after `"key":` in a JSON row, up to the next ',' or '}'
/// (strings come back without their quotes).
bool row_field(const std::string& row, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = row.find(needle);
  if (at == std::string::npos) return false;
  std::size_t pos = at + needle.size();
  if (pos < row.size() && row[pos] == '"') {
    const std::size_t end = row.find('"', pos + 1);
    if (end == std::string::npos) return false;
    *out = row.substr(pos + 1, end - pos - 1);
    return true;
  }
  const std::size_t end = row.find_first_of(",}", pos);
  *out = row.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
  return true;
}

double row_num(const std::string& row, const char* key) {
  std::string raw;
  return row_field(row, key, &raw) ? std::strtod(raw.c_str(), nullptr) : 0.0;
}

std::uint64_t row_u64(const std::string& row, const char* key) {
  std::string raw;
  return row_field(row, key, &raw) ? std::strtoull(raw.c_str(), nullptr, 10) : 0;
}

Observed observe_row(const std::string& row) {
  Observed o;
  row_field(row, "verdict", &o.verdict);
  o.states = row_u64(row, "states");
  o.transitions = row_u64(row, "transitions");
  o.trace_len = row_u64(row, "trace_len");
  o.dead_states = row_u64(row, "dead_states");
  o.trials = row_u64(row, "trials");
  o.failures = row_u64(row, "failures");
  o.rejected = row_u64(row, "rejected") != 0;
  o.deadline_hit = row_u64(row, "deadline_hit") != 0;
  o.from_cache = row_u64(row, "from_cache") != 0;
  return o;
}

}  // namespace

bool Daemon::start(const std::string& binary, const std::string& dir,
                   unsigned workers) {
  dir_ = dir;
  const std::string port_file = dir + "/port";
  const std::string log = dir + "/server.log";
  std::vector<std::string> args = {
      binary, "--port=0", "--port-file=" + port_file,
      "--workers=" + std::to_string(workers), "--cache-dir=" + dir + "/cache"};
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    std::string text;
    if (read_file(port_file, &text) && !text.empty()) {
      port_ = static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
      if (port_ != 0) return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  return false;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  rusage usage{};
  int status = 0;
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  final_peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  pid_ = -1;
}

double Daemon::cpu_seconds() const {
  if (pid_ <= 0) return 0.0;
  std::string text;
  if (!read_file("/proc/" + std::to_string(pid_) + "/stat", &text)) return 0.0;
  // Fields after the parenthesised command: state is field 3, utime 14,
  // stime 15.
  std::istringstream rest(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return final_peak_rss_mb_;
  std::string text;
  if (!read_file("/proc/" + std::to_string(pid_) + "/status", &text)) return 0.0;
  const std::size_t at = text.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + 6, nullptr) / 1024.0;
}

std::uint64_t Daemon::dumped_counter(const std::string& key) const {
  std::string text;
  if (pid_ > 0 || !read_file(dir_ + "/server.log", &text)) return 0;
  const std::size_t at = text.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

bool LoadGen::connect(std::uint16_t port, unsigned connections) {
  conns_.clear();
  for (unsigned i = 0; i < connections; ++i) {
    std::string error;
    tta::util::Socket sock =
        tta::util::Socket::connect_to("127.0.0.1", port, 5000, &error);
    if (!sock.valid()) {
      std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
      return false;
    }
    sock.set_nonblocking(true);
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_.push_back(Conn{std::move(sock), {}, 0, {}});
  }
  return true;
}

ServeResult LoadGen::run(const std::vector<Request>& schedule,
                         double latency_limit_s, double drain_s,
                         Daemon& daemon, Report& report, SpanLog* spans) {
  ServeResult res;
  const std::size_t n = schedule.size();
  report.attempt(n);
  std::vector<double> sent_at(n, 0.0);
  std::vector<bool> answered(n, false);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const double cpu0 = daemon.cpu_seconds();
  const double last_due = n ? schedule.back().due_s : 0.0;
  double last_answer = 0.0;
  std::size_t next = 0;
  std::uint64_t outstanding = 0;
  bool broken = false;

  auto handle_row = [&](const std::string& row, double now_s) {
    if (row.find("\"progress\":1") != std::string::npos) return;
    std::string id;
    if (row.find("\"error\":") != std::string::npos || !row_field(row, "id", &id)) {
      ++res.errors;
      report.fail("error row: " + row.substr(0, 160));
      return;
    }
    const std::size_t idx = std::strtoull(id.c_str(), nullptr, 10);
    if (idx >= n || answered[idx]) {
      ++res.errors;
      report.fail("unexpected answer id " + id);
      return;
    }
    answered[idx] = true;
    --outstanding;
    ++res.answered;
    last_answer = std::max(last_answer, now_s);
    const Request& req = schedule[idx];
    const double latency = now_s - req.due_s;
    const Observed seen = observe_row(row);
    if (seen.rejected) ++res.rejected;
    if (seen.from_cache) ++res.from_cache;
    const std::string why = answer_mismatch(seen, *req.expected);
    if (!why.empty()) report.fail("served row " + id + ": " + why);
    if (latency > latency_limit_s) ++res.late;
    if (why.empty() && latency <= latency_limit_s) ++res.good;
    res.all_latency_s.push_back(latency);
    (req.hit ? res.hits : res.misses).emplace_back(req.due_s, latency);
    const double queue = row_num(row, "queue_seconds");
    res.queue_s.push_back(queue);
    if (spans) {
      const double engine = seen.from_cache ? 0.0 : row_num(row, "engine_seconds");
      const int job = spans->add_s("job", req.due_s, now_s, -1, idx);
      spans->add_s("gen.late", req.due_s, sent_at[idx], job, idx);
      spans->add_s("queue", now_s - engine - queue, now_s - engine, job, idx);
      spans->add_s("engine", now_s - engine, now_s, job, idx);
    }
  };

  std::vector<pollfd> fds(conns_.size());
  char buf[65536];
  for (;;) {
    const Clock::time_point now = Clock::now();
    const double now_s = seconds_between(t0, now);
    while (next < n && schedule[next].due_s <= now_s) {
      Conn& c = conns_[next % conns_.size()];
      c.out += schedule[next].line;
      c.out += '\n';
      sent_at[next] = now_s;
      res.lateness_s.push_back(now_s - schedule[next].due_s);
      ++next;
      ++outstanding;
      ++res.sent;
    }
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.sock.fd(), c.out.data() + c.out_off,
                                 c.out.size() - c.out_off,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            broken = true;
          }
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (broken) break;
    if (next == n && (outstanding == 0 || now_s > last_due + drain_s)) break;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].sock.fd();
      fds[i].events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    double wait_s = 0.02;
    if (next < n) wait_s = std::max(0.0, schedule[next].due_s - now_s);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t r = ::recv(c.sock.fd(), buf, sizeof buf, MSG_DONTWAIT);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          broken = true;
        }
        break;
      }
      const double at = seconds_between(t0, Clock::now());
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        handle_row(c.in.substr(start, nl - start), at);
      }
      c.in.erase(0, start);
    }
    if (broken) break;
  }
  if (broken) report.fail("connection to tta_verifyd broke");
  for (std::size_t i = 0; i < n; ++i) {
    if (answered[i]) continue;
    ++res.errors;
    report.fail("request " + std::to_string(i) + " never answered");
  }
  std::sort(res.hits.begin(), res.hits.end());
  std::sort(res.misses.begin(), res.misses.end());
  res.wall_s = last_answer - (n ? schedule.front().due_s : 0.0);
  res.daemon_cpu_s = daemon.cpu_seconds() - cpu0;
  return res;
}

}  // namespace perfbench
