// harness.hpp - process control, /proc accounting, timing and output for
// the perfbench programs.
//
// Every daemon the benchmark starts runs in its own process group with a
// parent-death signal, so a harness that crashes or is killed takes its
// daemons with it; a normal exit, an error return and SIGINT/SIGTERM all
// kill and reap every group through one registry.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command line shared by both programs.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string ptmd;     ///< path of the ptmd binary under test
  std::string workdir;  ///< fresh directory for sockets and archives
  std::string spans;    ///< probes only: where the span dump goes
};

/// Parses `--name value` pairs; exits with code 2 on anything malformed.
[[nodiscard]] Args parse_args(int argc, char** argv, bool probes);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile of exact samples (sorts `samples`).
[[nodiscard]] double percentile(std::vector<std::uint64_t>& samples, double q);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Milliseconds one fixed integer loop takes: a reference for how fast the
/// host ran at that moment, printed at a run's start and end.
[[nodiscard]] double spin_loop_ms();

/// Host CPU time stolen from this machine so far (/proc/stat), in ms: a
/// second reference for a slow host epoch.
[[nodiscard]] double steal_ms();

/// Fails the run: prints `what` to stderr, kills every daemon, exits 1
/// without a result line.
[[noreturn]] void die(const std::string& what);

/// One daemon process: ptmd in its own process group, stdout on a pipe
/// (read until its "ready" line), stderr into `log_path`.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon prints "ready"; returns the record count of
  /// its "restored N records" line (0 when it printed none).  Dies when
  /// the daemon exits first or `timeout_s` passes.
  std::uint64_t wait_ready(double timeout_s);
  /// SIGTERM, then waits for a clean exit (SIGKILL after `timeout_s`).
  void stop(double timeout_s = 10);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// User + system CPU of the whole process, in microseconds.
  [[nodiscard]] double cpu_us() const;
  /// Resident set size in bytes.
  [[nodiscard]] std::uint64_t rss_bytes() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string log_path_;
};

/// Bytes the calling thread has read with read(2)-family calls
/// (/proc/self/task/<tid>/io rchar) - socket reads included.
[[nodiscard]] std::uint64_t thread_rchar();

/// Sum of every instrument named `name` in a telemetry JSON snapshot.
[[nodiscard]] double sum_counter(const std::string& json,
                                 const std::string& name);

[[nodiscard]] std::uint64_t file_size(const std::string& path);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result line: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

/// A span: a timed call into one layer, with the span that caused it.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends.  Ids are
/// unique across logs: the high bits carry the log's own number.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t log_id) : base_(log_id << 40) {}
  /// Opens a span under `parent` (0 = a root); returns its id.
  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::uint64_t base_;  ///< id = base_ + index in spans_ + 1
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// makes it a no-op, which is how untraced code paths run.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::uint64_t parent = 0)
      : log_(log), id_(log ? log->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// Writes spans as JSON lines: name, id, parent, start_ns, end_ns.
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
