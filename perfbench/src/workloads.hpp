// workloads.hpp - the three closed-loop workloads.
//
// Each run starts fresh ptmd processes in the current directory (unix
// sockets, archives), loads a history in an untimed phase, restarts the
// daemons on it (the timed set-up), runs the timed phase, and checks every
// answer against computations made in-process from the generated inputs.
// The daemons are driven only through their deployment flags and the
// public client API (SupervisedConnection + UplinkClient, and
// ClusterCoordinator), so internal rewrites of the program do not touch
// this code.
//
//   ingest  one durable one-node cluster; two RSU uplinks upload new
//           periods for every location.
//   query   three durable nodes, rf = 2; one planner session runs the
//           point / recent / p2p / corridor query mix.
//   mixed   the query cluster with one coordinator ingesting new periods
//           while another runs the point / p2p / corridor mix.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "net/mac.hpp"

namespace perfbench {

// The daemons of one workload: `nodes` members of one cluster spec, each
// with its own socket and archive in the current directory.
class Cluster {
 public:
  Cluster(const Args& args, std::size_t nodes, bool durable = true)
      : args_(args), durable_(durable) {
    for (std::size_t n = 1; n <= nodes; ++n) {
      if (!spec_.empty()) spec_ += ";";
      spec_ += std::to_string(n) + "@unix:n" + std::to_string(n) + ".sock";
    }
    auto config = ptm::cluster::parse_cluster_spec(spec_);
    if (!config) die("cluster spec: " + config.status().to_string());
    config_ = *config;
  }

  /// Spawns every node and waits until each is ready; returns the record
  /// count each one restored from its archive.
  std::vector<std::uint64_t> start() {
    for (std::size_t n = 1; n <= config_.nodes.size(); ++n) {
      std::vector<std::string> flags{"--cluster", spec_, "--node-id",
                                     std::to_string(n)};
      if (durable_) {
        flags.push_back("--archive");
        flags.push_back(archive(n));
      }
      daemons_.push_back(std::make_unique<Daemon>(
          args_.ptmd, flags,
          "n" + std::to_string(n) + "." + std::to_string(++generation_) +
              ".log"));
    }
    std::vector<std::uint64_t> restored;
    for (auto& d : daemons_) restored.push_back(d->wait_ready(60));
    return restored;
  }

  void stop() {
    for (auto& d : daemons_) d->stop();
    daemons_.clear();
  }

  /// Deletes the archives, so the next start() begins empty.
  void wipe() const {
    for (std::size_t n = 1; n <= config_.nodes.size(); ++n) {
      std::remove(archive(n).c_str());
    }
  }

  [[nodiscard]] ptm::cluster::ClusterCoordinatorOptions coordinator_options(
      std::uint64_t seed) const {
    ptm::cluster::ClusterCoordinatorOptions options;
    options.config = config_;
    options.seed = seed;
    return options;
  }

  [[nodiscard]] static std::string archive(std::size_t n) {
    return "n" + std::to_string(n) + ".archive";
  }
  [[nodiscard]] std::size_t size() const { return config_.nodes.size(); }
  [[nodiscard]] std::string endpoint(std::size_t n) const {
    return config_.nodes[n - 1].client.to_string();
  }

  [[nodiscard]] double cpu_us() const {
    double total = 0;
    for (const auto& d : daemons_) total += d->cpu_us();
    return total;
  }
  [[nodiscard]] std::uint64_t rss_bytes() const {
    std::uint64_t total = 0;
    for (const auto& d : daemons_) total += d->rss_bytes();
    return total;
  }
  [[nodiscard]] std::uint64_t archive_bytes() const {
    std::uint64_t total = 0;
    for (std::size_t n = 1; n <= config_.nodes.size(); ++n) {
      total += file_size(archive(n));
    }
    return total;
  }

 private:
  const Args& args_;
  bool durable_;
  std::string spec_;
  ptm::cluster::ClusterConfig config_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  int generation_ = 0;
};

/// The server address uplinks put in their V2I frames (loadgen's value).
inline constexpr ptm::MacAddress kServerMac{(0x02ULL << 40) | 0x53525600ULL};

/// Per-operation bound on every client call.
[[nodiscard]] ptm::Deadline op_deadline();

/// Every node's telemetry snapshot, in node order (dies when one is down).
[[nodiscard]] std::vector<std::string> node_stats(
    ptm::cluster::ClusterCoordinator& control);
/// Sum of an instrument over all nodes' snapshots.
[[nodiscard]] double total(const std::vector<std::string>& stats,
                           const std::string& name);
/// Polls the nodes' stats until `done` holds (dies after a minute).
void wait_until(ptm::cluster::ClusterCoordinator& control,
                const std::function<bool(const std::vector<std::string>&)>& done,
                const std::string& what);

/// Untimed: a fresh cluster ingests the history through the coordinator,
/// replication converges, and the daemons shut down, leaving archives.
void load_history(Cluster& cluster, const Inputs& inputs);

/// The input shape of each workload.
[[nodiscard]] Shape workload_shape(const std::string& workload);

/// What one run measured, before it is turned into metrics.
struct Report {
  std::vector<std::string> errors;  ///< failed checks; empty = correct
  std::uint64_t attempted = 0;      ///< timed operations attempted
  std::uint64_t failed = 0;         ///< of those, failed
  double setup_s = 0;
  double ops_per_s = 0;             ///< summed over client threads
  /// Exact per-operation latencies by kind ("ingest", "point", ...).
  std::map<std::string, std::vector<std::uint64_t>> latency_ns;
  /// The same, for operations that ran with tracing on (traced runs only).
  std::map<std::string, std::vector<std::uint64_t>> traced_latency_ns;
  /// For each sample in `latency_ns`, the one-second window it started in.
  std::map<std::string, std::vector<std::uint32_t>> window_of;
  double client_bytes_per_op = 0;   ///< socket bytes read per operation
  double server_cpu_us_per_op = 0;
  double server_rss_bytes_per_record = 0;
  double archive_bytes_per_record = 0;
};

/// Timed set-up: restarts `cluster` on its history archives and waits until
/// every node has restored its records and every replication snapshot has
/// ended; returns the seconds that took.  Restore mismatches go to
/// `report.errors`.
double restart_on_history(Cluster& cluster, const Inputs& inputs,
                          Report& report);

/// Runs `workload` in the current directory.  With `trace` set, every
/// other block of 32 operations records spans into the given per-thread
/// logs (one log per client thread, created by the caller).
[[nodiscard]] Report run_workload(const Args& args, const Inputs& inputs,
                                  std::vector<SpanLog>* trace);

/// The end-to-end metrics of a report.  Sorts the latency samples, so call
/// it before anything else reads them by position.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(Report& report);

}  // namespace perfbench
