#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "cluster/coordinator.hpp"
#include "cluster/partition.hpp"
#include "obs/trace.hpp"
#include "query/query_service.hpp"
#include "transport/connection.hpp"
#include "transport/uplink.hpp"

namespace perfbench {

using ptm::Deadline;
using ptm::TrafficRecord;
using ptm::cluster::ClusterCoordinator;
using ptm::cluster::ClusterCoordinatorOptions;

Deadline op_deadline() { return Deadline::after(std::chrono::seconds(5)); }

// Every node's telemetry snapshot, in node order.
std::vector<std::string> node_stats(ClusterCoordinator& control) {
  std::vector<std::string> out;
  for (const auto& status : control.cluster_status(op_deadline())) {
    if (!status.reachable) {
      die("node " + std::to_string(status.node_id) + " unreachable");
    }
    out.push_back(status.stats_json);
  }
  return out;
}

double total(const std::vector<std::string>& stats, const std::string& name) {
  double sum = 0;
  for (const auto& json : stats) sum += sum_counter(json, name);
  return sum;
}

// Polls until `done` holds for the nodes' stats (or dies after a minute).
void wait_until(ClusterCoordinator& control,
                const std::function<bool(const std::vector<std::string>&)>& done,
                const std::string& what) {
  const std::uint64_t give_up = now_ns() + 60'000'000'000ULL;
  while (!done(node_stats(control))) {
    if (now_ns() > give_up) die("timed out waiting for " + what);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

namespace {

constexpr std::size_t kTraceBlock = 32;  // ops per traced/untraced block

// Records each node holds under the partition map, for `records`.
std::vector<std::uint64_t> held_per_node(
    const ptm::cluster::PartitionMap& map,
    const std::vector<TrafficRecord>& records) {
  std::vector<std::uint64_t> held(map.node_count(), 0);
  for (const auto& r : records) {
    for (std::uint64_t node : map.replicas(r.location)) ++held[node - 1];
  }
  return held;
}

// One client thread's tallies.
struct ThreadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t done = 0;
  double elapsed_s = 0;
  std::uint64_t read_bytes = 0;
  std::map<std::string, std::vector<std::uint64_t>> latency_ns;
  std::map<std::string, std::vector<std::uint64_t>> traced_latency_ns;
  std::map<std::string, std::vector<std::uint32_t>> window_of;
  std::vector<std::string> errors;
  std::vector<std::pair<std::size_t, std::uint64_t>> acked;  ///< (index, period)

  void note(const std::string& error) {
    if (errors.size() < 5) errors.push_back(error);
  }
};

// Runs `op(i, log, parent)` in whole rounds of `round` operations until
// `end_ns`, timing each call.  Every other block of kTraceBlock operations
// runs traced when `log` is set.
template <typename Op>
void closed_loop(ThreadResult& out, std::uint64_t end_ns, std::size_t round,
                 SpanLog* log, const std::function<std::string(std::size_t)>& kind,
                 Op&& op) {
  const std::uint64_t rchar0 = thread_rchar();
  const std::uint64_t t0 = now_ns();
  std::size_t i = 0;
  while (i % round != 0 || now_ns() < end_ns) {
    const bool traced = log && (i / kTraceBlock) % 2 == 1;
    SpanLog* span_log = traced ? log : nullptr;
    const std::string& name = kind(i);
    const std::uint64_t start = now_ns();
    bool ok = false;
    {
      ScopedSpan root(span_log, span_log ? "op." + name : std::string());
      ok = op(i, span_log, root.id());
    }
    const std::uint64_t took = now_ns() - start;
    ++out.attempted;
    if (ok) {
      ++out.done;
      if (traced) {
        out.traced_latency_ns[name].push_back(took);
      } else {
        out.latency_ns[name].push_back(took);
        out.window_of[name].push_back(
            static_cast<std::uint32_t>((start - t0) / 1'000'000'000ULL));
      }
    } else {
      ++out.failed;
    }
    ++i;
  }
  out.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.read_bytes = thread_rchar() - rchar0;
  // The bytes metric rests on the kernel counting socket read(2)s; a
  // client that stopped reading through read(2) must not report zero.
  if (out.done > 0 && out.read_bytes == 0) {
    die("per-thread rchar saw no socket reads; client_bytes_per_op cannot "
        "be measured");
  }
}

void merge(Report& report, const ThreadResult& t) {
  report.attempted += t.attempted;
  report.failed += t.failed;
  if (t.elapsed_s > 0) report.ops_per_s += static_cast<double>(t.done) / t.elapsed_s;
  for (const auto& [k, v] : t.latency_ns) {
    auto& dst = report.latency_ns[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& [k, v] : t.window_of) {
    auto& dst = report.window_of[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& [k, v] : t.traced_latency_ns) {
    auto& dst = report.traced_latency_ns[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const auto& e : t.errors) report.errors.push_back(e);
}

// The planner session: cycles through the query mix, checking each answer
// bit for bit against the in-process reference.
void query_thread(const Cluster& cluster, const Inputs& inputs,
                  std::uint64_t end_ns, SpanLog* log, ThreadResult& out) {
  ClusterCoordinator coordinator(cluster.coordinator_options(3));
  // Dial every node before timing starts.
  for (std::size_t i = 0; i < inputs.kinds_per_round; ++i) {
    if (!same_answer(coordinator.run(inputs.queries[i].request),
                     inputs.queries[i].expected)) {
      out.note("warm-up query answered wrongly");
    }
  }
  const auto& qs = inputs.queries;
  closed_loop(
      out, end_ns, inputs.kinds_per_round, log,
      [&](std::size_t i) -> std::string {
        return kind_name(qs[i % qs.size()].kind);
      },
      [&](std::size_t i, SpanLog* span_log, std::uint64_t parent) {
        const PlannedQuery& q = qs[i % qs.size()];
        ptm::QueryResponse response;
        {
          ScopedSpan span(span_log, "cluster.run", parent);
          response = coordinator.run(q.request);
        }
        if (!response.ok()) {
          out.note(std::string("query failed: ") +
                   response.status.to_string());
          return false;
        }
        if (!same_answer(response, q.expected)) {
          out.note(std::string(kind_name(q.kind)) + " query #" +
                   std::to_string(i % qs.size()) +
                   " differs from the in-process answer");
        }
        return true;
      });
}

// Uploads period after period for locations `first, first + stride, ...`
// through `deliver`; a round is one period for all of them.
template <typename Deliver>
void ingest_loop(const Inputs& inputs, std::size_t first, std::size_t stride,
                 std::uint64_t end_ns, SpanLog* log, ThreadResult& out,
                 Deliver&& deliver) {
  std::vector<std::size_t> mine;
  for (std::size_t i = first; i < inputs.locations.size(); i += stride) {
    mine.push_back(i);
  }
  const std::uint64_t first_period = inputs.shape.history_periods;
  closed_loop(
      out, end_ns, mine.size(), log,
      [](std::size_t) -> std::string { return "ingest"; },
      [&](std::size_t i, SpanLog* span_log, std::uint64_t parent) {
        const std::size_t index = mine[i % mine.size()];
        const std::uint64_t period = first_period + i / mine.size();
        const TrafficRecord record = inputs.new_record(index, period);
        const bool ok = deliver(record, span_log, parent);
        if (ok) out.acked.emplace_back(index, period);
        return ok;
      });
}

void finish_metrics(Report& report, const Cluster& cluster, double cpu0_us,
                    std::uint64_t ops, std::uint64_t read_bytes,
                    std::uint64_t bytes_ops, std::uint64_t records_held,
                    std::uint64_t distinct_records) {
  const double n_ops = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  report.server_cpu_us_per_op = (cluster.cpu_us() - cpu0_us) / n_ops;
  report.client_bytes_per_op =
      static_cast<double>(read_bytes) /
      static_cast<double>(std::max<std::uint64_t>(bytes_ops, 1));
  report.server_rss_bytes_per_record =
      static_cast<double>(cluster.rss_bytes()) /
      static_cast<double>(records_held);
  report.archive_bytes_per_record =
      static_cast<double>(cluster.archive_bytes()) /
      static_cast<double>(distinct_records);
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

SpanLog* log_for(std::vector<SpanLog>* trace, std::size_t thread) {
  return trace ? &(*trace)[thread] : nullptr;
}

Report run_ingest(const Args& args, const Inputs& inputs,
                  std::vector<SpanLog>* trace) {
  Report report;
  Cluster cluster(args, 1);
  load_history(cluster, inputs);
  report.setup_s = restart_on_history(cluster, inputs, report);

  ClusterCoordinator control(cluster.coordinator_options(2));
  const auto stats0 = node_stats(control);
  const double cpu0 = cluster.cpu_us();
  auto endpoint = ptm::transport::parse_endpoint(cluster.endpoint(1));
  if (!endpoint) die("bad endpoint");

  std::vector<ThreadResult> results(2);
  std::vector<std::thread> threads;
  const std::uint64_t end_ns = deadline_after(args.seconds);
  for (std::size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      ptm::transport::SupervisedConnection connection(*endpoint, {}, nullptr,
                                                      100 + c);
      ptm::transport::UplinkClient uplink(
          connection, ptm::MacAddress{(0x02ULL << 40) | (0xBE0ULL << 8) | c},
          kServerMac);
      if (!connection.ensure_connected(op_deadline()).is_ok()) {
        results[c].note("uplink could not connect");
        return;
      }
      ingest_loop(inputs, c, 2, end_ns, log_for(trace, c), results[c],
                  [&](const TrafficRecord& record, SpanLog* span_log,
                      std::uint64_t parent) {
                    ScopedSpan span(span_log, "uplink.deliver", parent);
                    auto reply = uplink.deliver(
                        record,
                        ptm::TraceContext::for_record(record.location,
                                                      record.period),
                        op_deadline());
                    if (!reply) {
                      results[c].note("deliver: " +
                                      reply.status().to_string());
                      connection.sever();
                      return false;
                    }
                    if (!reply->acked) {
                      results[c].note("upload nacked");
                      return false;
                    }
                    return true;
                  });
    });
  }
  for (auto& t : threads) t.join();

  std::uint64_t acked = 0, read_bytes = 0;
  for (const auto& r : results) {
    merge(report, r);
    acked += r.acked.size();
    read_bytes += r.read_bytes;
  }
  const auto stats1 = node_stats(control);
  const double ingest_ok = total(stats1, "ingest_ok") - total(stats0, "ingest_ok");
  if (ingest_ok != static_cast<double>(acked)) {
    report.errors.push_back("daemon ingest_ok delta " +
                            std::to_string(ingest_ok) + " != acks " +
                            std::to_string(acked));
  }
  const std::uint64_t records = inputs.history.size() + acked;
  finish_metrics(report, cluster, cpu0, acked, read_bytes, acked, records,
                 records);

  // Restart on the archive: it must restore exactly the history plus every
  // acked record, and a sample of them must answer as the records sent.
  cluster.stop();
  const auto restored = cluster.start();
  if (restored[0] != records) {
    report.errors.push_back("restart restored " + std::to_string(restored[0]) +
                            " records, expected " + std::to_string(records));
  }
  std::vector<TrafficRecord> sample;
  std::mt19937_64 pick(args.seed);
  for (int k = 0; k < 128; ++k) {
    const auto& r = results[k % 2];
    if (r.acked.empty()) continue;
    const auto& [index, period] = r.acked[pick() % r.acked.size()];
    sample.push_back(inputs.new_record(index, period));
    sample.push_back(inputs.history[pick() % inputs.history.size()]);
  }
  ptm::QueryService reference;
  for (const auto& record : sample) (void)reference.ingest(record);
  ClusterCoordinator checker(cluster.coordinator_options(4));
  for (const auto& record : sample) {
    const ptm::QueryRequest q =
        ptm::PointVolumeQuery{record.location, record.period};
    if (!same_answer(checker.run(q), reference.run(q))) {
      report.errors.push_back("point volume of (" +
                              std::to_string(record.location) + ", " +
                              std::to_string(record.period) +
                              ") differs after restart");
      break;
    }
  }
  cluster.stop();
  return report;
}

Report run_query(const Args& args, const Inputs& inputs,
                 std::vector<SpanLog>* trace) {
  Report report;
  Cluster cluster(args, 3);
  load_history(cluster, inputs);
  report.setup_s = restart_on_history(cluster, inputs, report);

  const double cpu0 = cluster.cpu_us();
  ThreadResult result;
  std::thread worker([&] {
    query_thread(cluster, inputs, deadline_after(args.seconds),
                 log_for(trace, 0), result);
  });
  worker.join();
  merge(report, result);
  ClusterCoordinator control(cluster.coordinator_options(2));
  const std::uint64_t copies =
      inputs.history.size() * control.partition_map().replication_factor();
  finish_metrics(report, cluster, cpu0, result.done, result.read_bytes,
                 result.done, copies, inputs.history.size());
  cluster.stop();
  return report;
}

Report run_mixed(const Args& args, const Inputs& inputs,
                 std::vector<SpanLog>* trace) {
  Report report;
  Cluster cluster(args, 3);
  load_history(cluster, inputs);
  report.setup_s = restart_on_history(cluster, inputs, report);

  ClusterCoordinator control(cluster.coordinator_options(2));
  const auto stats0 = node_stats(control);
  const double cpu0 = cluster.cpu_us();
  const std::uint64_t end_ns = deadline_after(args.seconds);
  ThreadResult writes, reads;
  std::thread writer([&] {
    ClusterCoordinator coordinator(cluster.coordinator_options(5));
    ingest_loop(inputs, 0, 1, end_ns, log_for(trace, 0), writes,
                [&](const TrafficRecord& record, SpanLog* span_log,
                    std::uint64_t parent) {
                  ScopedSpan span(span_log, "cluster.ingest", parent);
                  const ptm::Status s = coordinator.ingest(record, op_deadline());
                  if (!s.is_ok()) writes.note("ingest: " + s.to_string());
                  return s.is_ok();
                });
  });
  std::thread reader([&] {
    query_thread(cluster, inputs, end_ns, log_for(trace, 1), reads);
  });
  writer.join();
  reader.join();
  merge(report, writes);
  merge(report, reads);

  // Replication of the new periods must drain, one forward per extra copy.
  const std::uint64_t acked = writes.acked.size();
  const std::size_t rf = control.partition_map().replication_factor();
  const double ingest_ok0 = total(stats0, "ingest_ok");
  wait_until(control,
             [&](const std::vector<std::string>& stats) {
               return total(stats, "ingest_ok") - ingest_ok0 >=
                          static_cast<double>(acked * rf) &&
                      total(stats, "transport_repl_lag") == 0;
             },
             "replication of new periods");
  const auto stats1 = node_stats(control);
  const double forwarded = total(stats1, "transport_repl_records_total") -
                           total(stats0, "transport_repl_records_total");
  if (forwarded != static_cast<double>(acked * (rf - 1))) {
    report.errors.push_back("replicated " + std::to_string(forwarded) +
                            " records for " + std::to_string(acked) +
                            " first-accept ingests at rf " +
                            std::to_string(rf));
  }
  const double ingest_ok = total(stats1, "ingest_ok") - ingest_ok0;
  if (ingest_ok != static_cast<double>(acked * rf)) {
    report.errors.push_back("ingest_ok delta " + std::to_string(ingest_ok) +
                            " != " + std::to_string(acked * rf));
  }
  const std::uint64_t distinct = inputs.history.size() + acked;
  finish_metrics(report, cluster, cpu0, writes.done + reads.done,
                 reads.read_bytes, reads.done, distinct * rf, distinct);
  cluster.stop();
  return report;
}

}  // namespace

void load_history(Cluster& cluster, const Inputs& inputs) {
  cluster.wipe();
  cluster.start();
  ClusterCoordinator control(cluster.coordinator_options(1));
  std::vector<std::thread> loaders;
  std::atomic<bool> ok{true};
  for (std::size_t t = 0; t < 2; ++t) {
    loaders.emplace_back([&, t] {
      ClusterCoordinator coordinator(cluster.coordinator_options(10 + t));
      for (std::size_t i = t; i < inputs.history.size(); i += 2) {
        if (!coordinator.ingest(inputs.history[i], op_deadline()).is_ok()) {
          ok = false;
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  if (!ok) die("history load failed");
  const auto held = held_per_node(control.partition_map(), inputs.history);
  std::uint64_t copies = 0;
  for (auto h : held) copies += h;
  wait_until(control,
             [&](const std::vector<std::string>& stats) {
               return total(stats, "ingest_ok") == static_cast<double>(copies) &&
                      total(stats, "transport_repl_lag") == 0;
             },
             "history replication");
  cluster.stop();
}

double restart_on_history(Cluster& cluster, const Inputs& inputs,
                          Report& report) {
  const std::uint64_t t0 = now_ns();
  const auto restored = cluster.start();
  ClusterCoordinator control(cluster.coordinator_options(2));
  const auto held = held_per_node(control.partition_map(), inputs.history);
  for (std::size_t n = 0; n < restored.size(); ++n) {
    if (restored[n] != held[n]) {
      report.errors.push_back("node " + std::to_string(n + 1) + " restored " +
                              std::to_string(restored[n]) + " records, not " +
                              std::to_string(held[n]));
    }
  }
  if (cluster.size() > 1) {
    const double peers = static_cast<double>(cluster.size() - 1);
    const std::size_t copies_per_record =
        control.partition_map().replication_factor();
    wait_until(
        control,
        [&](const std::vector<std::string>& stats) {
          for (std::size_t n = 0; n < stats.size(); ++n) {
            const double sent = static_cast<double>(
                held[n] * (copies_per_record - 1));
            if (sum_counter(stats[n], "transport_repl_records_total") != sent ||
                sum_counter(stats[n], "transport_repl_subscribers") != peers ||
                sum_counter(stats[n], "transport_repl_lag") != 0) {
              return false;
            }
          }
          return true;
        },
        "replication snapshots");
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

Shape workload_shape(const std::string& workload) {
  Shape shape;
  if (workload == "ingest") {
    shape.history_periods = 64;
    shape.query_rounds = 0;
  } else if (workload == "query") {
    shape.history_periods = 64;
  } else if (workload == "mixed") {
    shape.history_periods = 64;
    shape.recent_queries = false;
  } else {
    die("unknown workload " + workload);
  }
  return shape;
}

Report run_workload(const Args& args, const Inputs& inputs,
                    std::vector<SpanLog>* trace) {
  if (args.workload == "ingest") return run_ingest(args, inputs, trace);
  if (args.workload == "query") return run_query(args, inputs, trace);
  return run_mixed(args, inputs, trace);
}

// The median over one-second windows of each window's q-quantile;
// the whole run's quantile when no window has enough samples.  A tail
// percentile taken this way is not moved by one slow second of the host.
double windowed_percentile(const std::vector<std::uint64_t>& samples,
                           const std::vector<std::uint32_t>& window_of,
                           double q) {
  constexpr std::size_t kMinWindowSamples = 100;
  std::map<std::uint32_t, std::vector<std::uint64_t>> by_window;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    by_window[window_of[i]].push_back(samples[i]);
  }
  std::vector<std::uint64_t> per_window;
  for (auto& [window, values] : by_window) {
    if (values.size() >= kMinWindowSamples) {
      per_window.push_back(static_cast<std::uint64_t>(percentile(values, q)));
    }
  }
  if (per_window.empty()) {
    std::vector<std::uint64_t> all = samples;
    return percentile(all, q);
  }
  return percentile(per_window, 0.5);
}

std::vector<Metric> end_to_end_metrics(Report& report) {
  std::vector<double> p50, p99;
  for (auto& [kind, samples] : report.latency_ns) {
    p99.push_back(
        windowed_percentile(samples, report.window_of[kind], 0.99) / 1e3);
    p50.push_back(percentile(samples, 0.50) / 1e3);
  }
  return {
      {"setup_s", report.setup_s, "s"},
      {"ops_per_s", report.ops_per_s, "1/s"},
      {"op_p50_us", geomean(p50), "us"},
      {"op_p99_us", geomean(p99), "us"},
      {"server_cpu_us_per_op", report.server_cpu_us_per_op, "us"},
      {"server_rss_bytes_per_record", report.server_rss_bytes_per_record,
       "bytes"},
      {"archive_bytes_per_record", report.archive_bytes_per_record, "bytes"},
      {"client_bytes_per_op", report.client_bytes_per_op, "bytes"},
  };
}

}  // namespace perfbench
