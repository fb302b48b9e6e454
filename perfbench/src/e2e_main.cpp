// perfbench_e2e - one untraced run of one workload; prints the end-to-end
// metrics as the last line of standard output.
//
//   perfbench_e2e --workload ingest|query|mixed --seed N --seconds S
//                 --ptmd PATH --workdir DIR
//
// The working directory must be fresh: the run puts its sockets, archives
// and daemon logs there.
#include <unistd.h>

#include <cstdio>

#include "harness.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

// The paper's §VI accuracy for these volumes and windows keeps the mean
// relative error of the persistent estimators well under this (0.08-0.09
// measured); an estimator that answered with the point volume would be
// off by 150 % or more (volumes > 2000 against at most 800 planted).
constexpr double kPlantedTolerance = 0.25;

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv, /*probes=*/false);
  if (chdir(args.workdir.c_str()) != 0) die("cannot enter " + args.workdir);
  std::printf("ref spin_ms_start %.3f\n", spin_loop_ms());
  const double steal0 = steal_ms();

  const Inputs inputs = make_inputs(workload_shape(args.workload), args.seed);
  std::vector<std::string> input_errors;
  for (const auto& q : inputs.queries) {
    if (!q.expected.ok()) input_errors.push_back("reference query failed");
  }
  const double planted_error =
      inputs.queries.empty() ? 0 : planted_mean_relative_error(inputs);
  if (planted_error >= kPlantedTolerance) {
    input_errors.push_back("planted mean relative error " +
                           std::to_string(planted_error));
  }

  Report report = run_workload(args, inputs, nullptr);
  for (const auto& e : input_errors) report.errors.push_back(e);
  const std::vector<Metric> metrics = end_to_end_metrics(report);

  for (auto& [kind, samples] : report.latency_ns) {
    std::printf("info %s n=%zu p50_us=%.3f p99_us=%.3f\n", kind.c_str(),
                samples.size(), percentile(samples, 0.5) / 1e3,
                percentile(samples, 0.99) / 1e3);
  }
  if (!inputs.queries.empty()) {
    std::printf("info planted_mean_relative_error %.4f\n", planted_error);
  }
  for (const auto& e : report.errors) std::fprintf(stderr, "check: %s\n", e.c_str());
  std::printf("ref host_steal_ms %.0f\n", steal_ms() - steal0);
  std::printf("ref spin_ms_end %.3f\n", spin_loop_ms());
  std::fflush(stdout);
  print_result(report.errors.empty(), report.attempted, report.failed,
               metrics);
  return 0;
}
