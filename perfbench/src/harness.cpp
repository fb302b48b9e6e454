#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {
namespace {

// Process groups of live daemons.  Plain atomics so the signal handler
// can walk them.
constexpr std::size_t kMaxGroups = 16;
std::atomic<pid_t> g_groups[kMaxGroups];

void register_group(pid_t pgid) {
  for (auto& slot : g_groups) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pgid)) return;
  }
  kill(-pgid, SIGKILL);
  waitpid(pgid, nullptr, 0);
  die("too many daemons");
}

void unregister_group(pid_t pgid) {
  for (auto& slot : g_groups) {
    pid_t expected = pgid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

// Async-signal-safe: kill(2) and waitpid(2) only.
void kill_all_groups() {
  for (auto& slot : g_groups) {
    const pid_t pgid = slot.exchange(0);
    if (pgid <= 0) continue;
    kill(-pgid, SIGKILL);
    waitpid(pgid, nullptr, 0);
  }
}

void on_fatal_signal(int sig) {
  kill_all_groups();
  _exit(128 + sig);
}

struct CleanupInstaller {
  CleanupInstaller() {
    std::atexit(kill_all_groups);
    struct sigaction sa {};
    sa.sa_handler = on_fatal_signal;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT}) {
      sigaction(sig, &sa, nullptr);
    }
    // A daemon exiting must not take the harness down with SIGPIPE.
    signal(SIGPIPE, SIG_IGN);
  }
} g_cleanup_installer;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t io_field(const std::string& path, const std::string& key) {
  const std::string text = read_file(path);
  const std::size_t at = text.find(key + ": ");
  if (at == std::string::npos) die("no " + key + " in " + path);
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

std::string tail_of(const std::string& path) {
  const std::string text = read_file(path);
  return text.size() > 2000 ? text.substr(text.size() - 2000) : text;
}

}  // namespace

Args parse_args(int argc, char** argv, bool probes) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      std::exit(2);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--ptmd") {
      args.ptmd = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans" && probes) {
      args.spans = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  if (args.workload.empty() || args.ptmd.empty() || args.workdir.empty() ||
      !(args.seconds > 0) || (probes && args.spans.empty())) {
    std::cerr << "usage: " << argv[0]
              << " --workload NAME --seed N --seconds S --ptmd PATH"
                 " --workdir DIR"
              << (probes ? " --spans FILE" : "") << "\n";
    std::exit(2);
  }
  return args;
}

double percentile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(samples[std::min(index, samples.size() - 1)]);
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double spin_loop_ms() {
  const std::uint64_t t0 = now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double steal_ms() {
  std::istringstream line(read_file("/proc/stat"));
  std::string cpu;
  double field = 0, steal = 0;
  line >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 1; i <= 8 && (line >> field); ++i) {
    if (i == 8) steal = field;
  }
  return steal * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void die(const std::string& what) {
  std::cout.flush();
  std::cerr << "perfbench: " << what << std::endl;
  kill_all_groups();
  _exit(1);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path)
    : log_path_(log_path) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) die("pipe failed");
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) die("cannot open " + log_path);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) die("fork failed");
  if (pid_ == 0) {
    setpgid(0, 0);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // the harness already died
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    struct sigaction sa {};
    sa.sa_handler = SIG_DFL;
    for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT, SIGPIPE}) {
      sigaction(sig, &sa, nullptr);
    }
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  setpgid(pid_, pid_);  // either side may win the race; both set it
  register_group(pid_);
  close(out[1]);
  close(log_fd);
  stdout_fd_ = out[0];
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(-pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    unregister_group(pid_);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

std::uint64_t Daemon::wait_ready(double timeout_s) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  std::string line;
  std::uint64_t restored = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) die("daemon not ready in time: " + tail_of(log_path_));
    pollfd p{stdout_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000 + 1);
    if (poll(&p, 1, wait_ms) <= 0) continue;
    char c = 0;
    const ssize_t n = read(stdout_fd_, &c, 1);
    if (n <= 0) die("daemon exited before ready: " + tail_of(log_path_));
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (line.rfind("restored ", 0) == 0) {
      restored = std::strtoull(line.c_str() + 9, nullptr, 10);
    } else if (line.rfind("ready ", 0) == 0) {
      return restored;
    }
    line.clear();
  }
}

void Daemon::stop(double timeout_s) {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() >= deadline) {
      kill(-pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    usleep(1000);
  }
  kill(-pid_, SIGKILL);  // anything the daemon left in its group
  unregister_group(pid_);
  pid_ = -1;
}

double Daemon::cpu_us() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) die("bad /proc stat");
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after "comm": state is field 3; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::strtod(field.c_str(), nullptr);
    if (index == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t Daemon::rss_bytes() const {
  std::istringstream statm(
      read_file("/proc/" + std::to_string(pid_) + "/statm"));
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t thread_rchar() {
  return io_field("/proc/thread-self/io", "rchar");
}

double sum_counter(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::string value_key = "\"value\":";
  double total = 0;
  std::size_t at = 0;
  while ((at = json.find(needle, at)) != std::string::npos) {
    const std::size_t v = json.find(value_key, at);
    if (v == std::string::npos) break;
    total += std::strtod(json.c_str() + v + value_key.size(), nullptr);
    at = v;
  }
  return total;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) die("cannot stat " + path);
  return static_cast<std::uint64_t>(st.st_size);
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    double value = metrics[i].value;
    if (!std::isfinite(value)) value = 0;
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            std::string(buf, end) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent) {
  spans_.push_back(Span{name, base_ + spans_.size() + 1, parent, now_ns(), 0});
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  spans_[id - base_ - 1].end_ns = now_ns();
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  if (!out) die("cannot write spans to " + path);
}

}  // namespace perfbench
