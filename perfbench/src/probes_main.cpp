// perfbench_probes - the traced run of one workload; prints the per-layer
// metrics as the last line of standard output.
//
//   perfbench_probes --workload ingest|query|mixed --seed N --seconds S
//                    --ptmd PATH --workdir DIR --spans FILE
//
// It first runs the workload itself with every other block of operations
// traced, which gives the tracing overhead (traced against untraced median
// latency in the same run).  Then it times the public functions of each
// layer - store, query, core, transport, cluster - on the workload's own
// records and query mix, one span per call, and writes every span to
// FILE as JSON lines.  Unlike perfbench_e2e this program calls layer
// internals, so an internal API change breaks only this program.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "cluster/coordinator.hpp"
#include "core/corridor_persistent.hpp"
#include "core/point_persistent.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "query/query_service.hpp"
#include "store/archive.hpp"
#include "store/record_log.hpp"
#include "transport/connection.hpp"
#include "transport/uplink.hpp"
#include "transport/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ptm::TrafficRecord;

constexpr std::size_t kCalls = 2000;  // calls per record-level probe

// Times each call of a probe as one span under the probe's root span.
class Probe {
 public:
  Probe(SpanLog& log, const std::string& name)
      : log_(log), root_(&log, "probe." + name) {}
  template <typename F>
  void time(const std::string& span, F&& call) {
    const std::uint64_t id = log_.open(span, root_.id());
    call();
    log_.close(id);
    const Span& s = log_.spans()[log_.spans().size() - 1];
    samples_.push_back(s.end_ns - s.start_ns);
  }
  [[nodiscard]] double mean_us() const {
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size()) / 1e3;
  }
  [[nodiscard]] double p50_us() {
    return percentile(samples_, 0.5) / 1e3;
  }
  [[nodiscard]] double median_s() { return percentile(samples_, 0.5) / 1e9; }

 private:
  SpanLog& log_;
  ScopedSpan root_;
  std::vector<std::uint64_t> samples_;
};

struct Context {
  const Args& args;
  const Inputs& inputs;  ///< the workload's inputs with all four query kinds
  SpanLog& log;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 10) errors.push_back(what);
  }
};

// New-period records, as the ingest workloads upload them.
std::vector<TrafficRecord> new_records(const Inputs& inputs,
                                       std::size_t count) {
  std::vector<TrafficRecord> out;
  const std::size_t n = inputs.locations.size();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(inputs.new_record(i % n, inputs.shape.history_periods + i / n));
  }
  return out;
}

const ptm::Bitmap& history_bits(const Inputs& inputs, std::uint64_t location,
                                std::uint64_t period) {
  const std::size_t per_period = inputs.locations.size();
  const std::size_t index = static_cast<std::size_t>(
      std::find(inputs.locations.begin(), inputs.locations.end(), location) -
      inputs.locations.begin());
  return inputs.history[period * per_period + index].bits;
}

void store_probes(Context& cx) {
  const auto fresh = new_records(cx.inputs, kCalls);
  {
    auto archive = ptm::RecordArchive::open("probe-append.archive", {});
    if (!archive) die("archive open: " + archive.status().to_string());
    Probe p(cx.log, "store.append");
    for (const auto& r : fresh) {
      p.time("store.append", [&] {
        cx.check(archive->append(r).is_ok(), "archive append failed");
      });
    }
    cx.add("store.archive_append_us", p.mean_us(), "us");
  }
  {
    auto archive = ptm::RecordArchive::open("probe-history.archive", {});
    if (!archive) die("archive open: " + archive.status().to_string());
    for (const auto& r : cx.inputs.history) {
      if (!archive->append(r).is_ok()) die("history archive append failed");
    }
  }
  Probe open(cx.log, "store.open");
  Probe read(cx.log, "store.read");
  Probe restore(cx.log, "query.restore");
  for (int rep = 0; rep < 3; ++rep) {
    open.time("store.open", [&] {
      auto a = ptm::RecordArchive::open("probe-history.archive", {});
      cx.check(a && a->live_records() == cx.inputs.history.size(),
               "archive reopened with the wrong record count");
    });
    read.time("store.read", [&] {
      auto log = ptm::read_record_log("probe-history.archive");
      cx.check(log && log->records.size() == cx.inputs.history.size(),
               "record log read the wrong record count");
    });
    auto archive = ptm::RecordArchive::open("probe-history.archive", {});
    if (!archive) die("archive open failed");
    ptm::QueryService service;
    service.attach_durability(*archive);
    restore.time("query.restore", [&] {
      auto n = service.restore_from_archive();
      cx.check(n && *n == cx.inputs.history.size(), "restore count wrong");
    });
  }
  cx.add("store.archive_open_s", open.median_s(), "s");
  cx.add("store.log_read_s", read.median_s(), "s");
  cx.add("query.restore_s", restore.median_s(), "s");
}

void query_probes(Context& cx) {
  const auto fresh = new_records(cx.inputs, kCalls);
  {
    ptm::QueryService service;
    Probe p(cx.log, "query.ingest_volatile");
    for (const auto& r : fresh) {
      p.time("query.ingest", [&] {
        cx.check(service.ingest(r).is_ok(), "volatile ingest failed");
      });
    }
    cx.add("query.ingest_volatile_us", p.mean_us(), "us");
  }
  {
    auto archive = ptm::RecordArchive::open("probe-ingest.archive", {});
    if (!archive) die("archive open failed");
    ptm::QueryService service;
    service.attach_durability(*archive);
    Probe p(cx.log, "query.ingest_durable");
    for (const auto& r : fresh) {
      p.time("query.ingest", [&] {
        cx.check(service.ingest(r).is_ok(), "durable ingest failed");
      });
    }
    cx.add("query.ingest_durable_us", p.mean_us(), "us");
  }

  ptm::QueryService service;
  for (const auto& r : cx.inputs.history) {
    if (!service.ingest(r).is_ok()) die("history ingest failed");
  }
  std::map<QueryKind, std::unique_ptr<Probe>> by_kind;
  for (QueryKind k : {QueryKind::kPoint, QueryKind::kRecent, QueryKind::kP2P,
                      QueryKind::kCorridor}) {
    by_kind[k] = std::make_unique<Probe>(
        cx.log, std::string("query.run_") + kind_name(k));
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& q : cx.inputs.queries) {
      by_kind[q.kind]->time("query.run", [&] {
        cx.check(same_answer(service.run(q.request), q.expected),
                 "in-process answer changed");
      });
    }
  }
  for (auto& [kind, probe] : by_kind) {
    cx.add(std::string("query.run_") + kind_name(kind) + "_us",
           probe->p50_us(), "us");
  }

  // The coordinator's scratch path for one corridor query: a default
  // service plus the query's records.
  Probe scratch(cx.log, "query.scratch_build");
  for (const auto& q : cx.inputs.queries) {
    if (q.kind != QueryKind::kCorridor) continue;
    const auto& c = std::get<ptm::CorridorQuery>(q.request);
    std::vector<TrafficRecord> records;
    for (auto location : c.locations) {
      for (auto period : c.periods) {
        records.push_back({location, period,
                           history_bits(cx.inputs, location, period)});
      }
    }
    scratch.time("query.scratch", [&] {
      ptm::QueryService fresh_service;
      for (const auto& r : records) (void)fresh_service.ingest(r);
    });
  }
  cx.add("query.scratch_build_us", scratch.p50_us(), "us");
}

void core_probes(Context& cx) {
  Probe eq12(cx.log, "core.eq12");
  Probe corridor(cx.log, "core.corridor");
  for (const auto& q : cx.inputs.queries) {
    if (q.kind == QueryKind::kPoint) {
      const auto& p = std::get<ptm::PointPersistentQuery>(q.request);
      std::vector<const ptm::Bitmap*> bits;
      for (auto period : p.periods) {
        bits.push_back(&history_bits(cx.inputs, p.location, period));
      }
      eq12.time("core.eq12", [&] {
        auto e = ptm::estimate_point_persistent(
            std::span<const ptm::Bitmap* const>(bits));
        cx.check(e && e->n_star == q.expected.summary.value,
                 "Eq. 12 estimate differs from the service's");
      });
    } else if (q.kind == QueryKind::kCorridor) {
      const auto& c = std::get<ptm::CorridorQuery>(q.request);
      std::vector<std::vector<const ptm::Bitmap*>> bits(c.locations.size());
      for (std::size_t j = 0; j < c.locations.size(); ++j) {
        for (auto period : c.periods) {
          bits[j].push_back(&history_bits(cx.inputs, c.locations[j], period));
        }
      }
      corridor.time("core.corridor", [&] {
        auto e = ptm::estimate_corridor_persistent(
            std::span<const std::vector<const ptm::Bitmap*>>(bits), 3);
        cx.check(e && e->n_corridor == q.expected.summary.value,
                 "corridor estimate differs from the service's");
      });
    }
  }
  cx.add("core.eq12_us", eq12.p50_us(), "us");
  cx.add("core.corridor_us", corridor.p50_us(), "us");

  std::vector<std::vector<std::uint8_t>> blobs;
  for (const auto& r : cx.inputs.history) blobs.push_back(r.serialize());
  Probe decode(cx.log, "core.decode");
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    decode.time("core.decode", [&] {
      auto r = TrafficRecord::deserialize(blobs[i]);
      cx.check(r && *r == cx.inputs.history[i], "record decode differs");
    });
  }
  cx.add("core.record_decode_us", decode.mean_us(), "us");
}

// Uploads through UplinkClient to a one-node cluster, volatile or durable.
void uplink_probe(Context& cx, bool durable) {
  Cluster node(cx.args, 1, durable);
  node.wipe();
  node.start();
  ptm::cluster::ClusterCoordinator control(node.coordinator_options(2));
  auto endpoint = ptm::transport::parse_endpoint(node.endpoint(1));
  if (!endpoint) die("bad endpoint");
  ptm::transport::SupervisedConnection connection(*endpoint);
  ptm::transport::UplinkClient uplink(
      connection, ptm::MacAddress{(0x02ULL << 40) | 0xBE1ULL},
      kServerMac);
  if (!connection.ensure_connected(op_deadline()).is_ok()) die("connect");

  if (!durable) {
    Probe ping(cx.log, "transport.heartbeat");
    for (std::size_t i = 0; i < kCalls; ++i) {
      ping.time("transport.ping", [&] {
        cx.check(static_cast<bool>(connection.ping()), "heartbeat failed");
      });
    }
    cx.add("transport.heartbeat_rtt_p50_us", ping.p50_us(), "us");
  }

  const auto stats0 = node_stats(control);
  Probe up(cx.log, durable ? "transport.durable_upload"
                           : "transport.volatile_upload");
  std::uint64_t acked = 0;
  for (const auto& r : new_records(cx.inputs, kCalls)) {
    up.time("uplink.deliver", [&] {
      auto reply = uplink.deliver(
          r, ptm::TraceContext::for_record(r.location, r.period),
          op_deadline());
      if (reply && reply->acked) ++acked;
    });
  }
  const auto stats1 = node_stats(control);
  const double ingested = total(stats1, "ingest_ok") - total(stats0, "ingest_ok");
  cx.check(acked == kCalls, "probe uploads not all acked");
  cx.check(ingested == static_cast<double>(acked), "ingest_ok != acks");
  if (durable) {
    cx.add("transport.durable_upload_p50_us", up.p50_us(), "us");
  } else {
    cx.add("transport.volatile_upload_p50_us", up.p50_us(), "us");
    cx.add("transport.acked_per_attempt",
           ingested / static_cast<double>(kCalls), "ratio");
    cx.add("transport.frames_per_record",
           (total(stats1, "transport_frames_total") -
            total(stats0, "transport_frames_total")) /
               std::max(ingested, 1.0),
           "ratio");
  }
  node.stop();
}

void cluster_probes(Context& cx) {
  Cluster cluster(cx.args, 3);
  load_history(cluster, cx.inputs);
  Report restart;
  (void)restart_on_history(cluster, cx.inputs, restart);
  for (const auto& e : restart.errors) cx.check(false, e);
  ptm::cluster::ClusterCoordinator control(cluster.coordinator_options(2));
  const auto& map = control.partition_map();

  // One records-request round trip per location of each query's fetch
  // plan, against the location's owner.
  std::vector<std::unique_ptr<ptm::transport::SupervisedConnection>> links;
  for (std::size_t n = 1; n <= cluster.size(); ++n) {
    auto endpoint = ptm::transport::parse_endpoint(cluster.endpoint(n));
    if (!endpoint) die("bad endpoint");
    links.push_back(
        std::make_unique<ptm::transport::SupervisedConnection>(*endpoint));
    if (!links.back()->ensure_connected(op_deadline()).is_ok()) die("connect");
  }
  Probe fetch(cx.log, "cluster.fetch");
  std::uint64_t fetched_bytes = 0;
  std::map<QueryKind, std::pair<std::uint64_t, std::uint64_t>> by_kind;
  for (const auto& q : cx.inputs.queries) {
    std::vector<std::uint64_t> locations, periods;
    std::visit(
        [&](const auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, ptm::PointPersistentQuery>) {
            locations = {r.location};
            periods = r.periods;
          } else if constexpr (std::is_same_v<T, ptm::RecentPersistentQuery>) {
            locations = {r.location};  // the coordinator asks for all periods
          } else if constexpr (std::is_same_v<T, ptm::P2PPersistentQuery>) {
            locations = {r.location_a, r.location_b};
            periods = r.periods;
          } else if constexpr (std::is_same_v<T, ptm::CorridorQuery>) {
            locations = r.locations;
            periods = r.periods;
          }
        },
        q.request);
    for (auto location : locations) {
      auto& link = *links[map.owner(location) - 1];
      fetch.time("cluster.fetch", [&] {
        cx.check(link.send(ptm::transport::RecordsRequest{location, periods})
                     .is_ok(),
                 "records-request send failed");
        for (;;) {
          auto message = link.receive(op_deadline());
          if (!message) {
            cx.check(false, "records-response missing");
            return;
          }
          const auto* resp =
              std::get_if<ptm::transport::RecordsResponse>(&*message);
          if (resp == nullptr || resp->location != location) continue;
          for (const auto& blob : resp->records) {
            fetched_bytes += blob.size();
            by_kind[q.kind].first += blob.size();
          }
          return;
        }
      });
    }
  }
  for (const auto& q : cx.inputs.queries) ++by_kind[q.kind].second;
  for (const auto& [kind, bytes_queries] : by_kind) {
    std::printf("info fetch_bytes_per_%s_query %.0f\n", kind_name(kind),
                static_cast<double>(bytes_queries.first) /
                    static_cast<double>(bytes_queries.second));
  }
  cx.add("cluster.fetch_location_p50_us", fetch.p50_us(), "us");
  cx.add("cluster.fetch_bytes_per_query",
         static_cast<double>(fetched_bytes) /
             static_cast<double>(cx.inputs.queries.size()),
         "bytes");

  // Coordinator ingest of new periods, and the replication it triggers.
  const auto stats0 = node_stats(control);
  ptm::cluster::ClusterCoordinator coordinator(cluster.coordinator_options(6));
  Probe ingest(cx.log, "cluster.ingest");
  for (const auto& r : new_records(cx.inputs, kCalls)) {
    ingest.time("cluster.ingest", [&] {
      cx.check(coordinator.ingest(r, op_deadline()).is_ok(),
               "coordinator ingest failed");
    });
  }
  const double rf = static_cast<double>(map.replication_factor());
  const double ingest_ok0 = total(stats0, "ingest_ok");
  wait_until(control,
             [&](const std::vector<std::string>& stats) {
               return total(stats, "ingest_ok") - ingest_ok0 >= kCalls * rf &&
                      total(stats, "transport_repl_lag") == 0;
             },
             "probe replication");
  const auto stats1 = node_stats(control);
  cx.add("cluster.coordinator_ingest_p50_us", ingest.p50_us(), "us");
  cx.add("cluster.repl_records_per_ingest",
         (total(stats1, "transport_repl_records_total") -
          total(stats0, "transport_repl_records_total")) /
             static_cast<double>(kCalls),
         "ratio");
  cluster.stop();
}

double op_p50_us(std::map<std::string, std::vector<std::uint64_t>>& by_kind) {
  std::vector<double> p50;
  for (auto& [kind, samples] : by_kind) {
    p50.push_back(percentile(samples, 0.5) / 1e3);
  }
  return geomean(p50);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv, /*probes=*/true);
  if (chdir(args.workdir.c_str()) != 0) die("cannot enter " + args.workdir);
  std::printf("ref spin_ms_start %.3f\n", spin_loop_ms());
  const double steal0 = steal_ms();

  // The workload itself, traced in alternate blocks.
  const Inputs workload_inputs =
      make_inputs(workload_shape(args.workload), args.seed);
  std::vector<SpanLog> logs{SpanLog(1), SpanLog(2)};
  Report report = run_workload(args, workload_inputs, &logs);
  const std::uint64_t workload_spans =
      logs[0].spans().size() + logs[1].spans().size();

  // The probes use the same history and new records, with a query mix of
  // all four kinds whatever the workload runs.
  Shape probe_shape = workload_shape(args.workload);
  probe_shape.query_rounds = 64;
  probe_shape.recent_queries = true;
  const Inputs inputs = make_inputs(probe_shape, args.seed);
  logs.emplace_back(3);
  Context cx{args, inputs, logs.back(), {}, {}};
  cx.add("trace.untraced_op_p50_us", op_p50_us(report.latency_ns), "us");
  cx.add("trace.traced_op_p50_us", op_p50_us(report.traced_latency_ns), "us");
  store_probes(cx);
  query_probes(cx);
  core_probes(cx);
  uplink_probe(cx, /*durable=*/false);
  uplink_probe(cx, /*durable=*/true);
  cluster_probes(cx);
  std::printf("info spans %zu\n",
              static_cast<std::size_t>(workload_spans +
                                       logs.back().spans().size()));

  write_spans(args.spans, {&logs[0], &logs[1], &logs[2]});
  for (const auto& e : report.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  for (const auto& e : cx.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  std::printf("ref host_steal_ms %.0f\n", steal_ms() - steal0);
  std::printf("ref spin_ms_end %.3f\n", spin_loop_ms());
  std::fflush(stdout);
  print_result(report.errors.empty() && cx.errors.empty(), report.attempted,
               report.failed, cx.metrics);
  return 0;
}
