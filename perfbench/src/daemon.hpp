// A ppcd child process: spawn, read its announced ports, sample its CPU
// and memory from /proc, stop it with SIGTERM and collect its drain report.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

class Daemon {
 public:
  Daemon(const std::string& binary, std::vector<std::string> args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::vector<char*> argv;
    args.insert(args.begin(), binary);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      ::close(out_fd_);
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stdout until a line containing `marker` arrives; returns the
  /// port after the last ':' of the first "host:port" token after it.
  std::uint16_t wait_port(const std::string& marker, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      const auto pos = output_.find(marker, scanned_);
      if (pos != std::string::npos) {
        const auto eol = output_.find('\n', pos);
        if (eol != std::string::npos) {
          const std::string line = output_.substr(pos, eol - pos);
          scanned_ = eol;
          const auto colon = line.find(':', marker.size());
          if (colon == std::string::npos) break;
          return static_cast<std::uint16_t>(
              std::stoul(line.substr(colon + 1)));
        }
      }
      const int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (left <= 0 || !read_some(left)) break;
    }
    throw std::runtime_error("ppcd did not announce '" + marker +
                             "'; output:\n" + output_);
  }

  /// CPU time of every thread of the daemon, in ns (schedstat run time).
  std::uint64_t cpu_ns() const {
    std::uint64_t total = 0;
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return 0;
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream f(dir + "/" + e->d_name + "/schedstat");
      std::uint64_t run = 0;
      if (f >> run) total += run;
    }
    ::closedir(d);
    return total;
  }

  /// Restricts every thread of the daemon to the `width` CPUs starting at
  /// `first` (modulo the CPU count); width 0 lifts the restriction.
  void pin(int first, int width) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int n = static_cast<int>(std::thread::hardware_concurrency());
    for (int c = 0; c < n; ++c) {
      if (width == 0 || (c - first % n + n) % n < width) CPU_SET(c, &set);
    }
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return;
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      ::sched_setaffinity(std::atoi(e->d_name), sizeof(set), &set);
    }
    ::closedir(d);
  }

  /// Peak resident set (VmHWM) in KiB.
  std::uint64_t hwm_kib() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
    }
    return 0;
  }

  /// SIGTERM, then waits for the graceful drain; returns the exit status.
  int stop(int timeout_ms = 30000) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (true) {
      read_some(5);
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
    }
    pid_ = -1;
    while (read_some(50)) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  const std::string& output() const { return output_; }

  /// "key=value" integer from the drain report (first occurrence after
  /// `marker`), or -1.
  long long report_value(const std::string& marker,
                         const std::string& key) const {
    const auto m = output_.rfind(marker);
    if (m == std::string::npos) return -1;
    const auto k = output_.find(" " + key + "=", m);
    if (k == std::string::npos) return -1;
    return std::stoll(output_.substr(k + key.size() + 2));
  }

 private:
  bool read_some(int timeout_ms) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    output_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
  std::size_t scanned_ = 0;
};

}  // namespace perfbench

namespace perfbench {

/// Steal time (the hypervisor running someone else while this CPU had
/// work) of each CPU so far, in seconds, from /proc/stat.
inline std::vector<double> cpu_steal_s() {
  std::vector<double> out;
  std::ifstream f("/proc/stat");
  std::string line;
  const double tick = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  while (std::getline(f, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream in(line.substr(line.find(' ')));
    std::uint64_t v[8] = {};
    for (auto& x : v) in >> x;
    out.push_back(static_cast<double>(v[7]) * tick);
  }
  return out;
}

/// Pins the daemon to `width` CPUs for each `slice_ns` slice from `t0`,
/// moving one CPU on per slice, until destroyed. A measured phase is then
/// a median over slices that each ran on different CPUs, so it depends
/// neither on where the scheduler happened to put the daemon nor on one
/// CPU a neighbour keeps busy. It also records how long the hypervisor
/// stole the pinned CPUs in each slice.
class PinRotation {
 public:
  PinRotation(const Daemon& d, int width, std::int64_t t0, std::int64_t slice_ns)
      : thread_([this, &d, width, t0, slice_ns] {
          std::int64_t current = -1;
          std::vector<double> at_start;
          int first = 0;
          const auto close_slice = [&] {
            if (current < 0) return;
            const std::vector<double> now_s = cpu_steal_s();
            const int n = static_cast<int>(now_s.size());
            double stolen = 0;
            for (int k = 0; k < width && n > 0; ++k) {
              const int c = (first + k) % n;
              stolen += now_s[c] - at_start[c];
            }
            steal_.push_back(stolen / width);
          };
          while (!stop_.load()) {
            const std::int64_t slice =
                std::max<std::int64_t>(0, (now() - t0) / slice_ns);
            if (slice != current) {
              close_slice();
              current = slice;
              first = static_cast<int>(slice % 64);
              d.pin(first, width);
              at_start = cpu_steal_s();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          close_slice();
          d.pin(0, 0);
        }) {}
  ~PinRotation() { stop(); }
  PinRotation(const PinRotation&) = delete;
  PinRotation& operator=(const PinRotation&) = delete;

  /// Stops rotating; returns the pinned CPUs' mean steal seconds per slice.
  const std::vector<double>& stop() {
    if (!stop_.exchange(true)) thread_.join();
    return steal_;
  }

 private:
  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::atomic<bool> stop_{false};
  std::vector<double> steal_;
  std::thread thread_;
};

}  // namespace perfbench
