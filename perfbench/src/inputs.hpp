// inputs.hpp - the benchmark's deterministic inputs.
//
// Everything a run sends is generated here from its seed, following the
// paper's §VI set-up: per-period volumes drawn uniformly from (2000, 10000],
// bitmaps planned at load factor f = 2 (Eq. 2), s = 3 representatives.
// Locations come in corridor groups of three; each group has a planted set
// of common vehicles that pass all three of its locations in every period,
// encoded through the real VehicleEncoder, so every persistent query in the
// mix has a known true answer.  Transient vehicles are uniform random bits,
// which is distribution-identical to encoding fresh vehicles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/traffic_record.hpp"
#include "query/query_types.hpp"

namespace perfbench {

enum class QueryKind { kPoint, kRecent, kP2P, kCorridor };
[[nodiscard]] const char* kind_name(QueryKind kind);

struct Shape {
  std::size_t groups = 64;           ///< corridor groups of three locations
  std::size_t history_periods = 32;  ///< periods stored before the run
  std::size_t window = 8;            ///< periods per persistent query
  std::size_t query_rounds = 128;    ///< distinct rounds of the query mix
  bool recent_queries = true;        ///< the mix has recent-window queries
};

struct PlannedQuery {
  QueryKind kind = QueryKind::kPoint;
  ptm::QueryRequest request;
  double planted = 0;           ///< true number of common vehicles
  ptm::QueryResponse expected;  ///< in-process QueryService answer
};

struct Inputs {
  Shape shape;
  std::vector<std::uint64_t> locations;  ///< 3 per group, group-major
  std::vector<std::size_t> planted;      ///< common vehicles per group
  /// Every (location, period < history_periods) record, period-major.
  std::vector<ptm::TrafficRecord> history;
  /// The query mix: query_rounds whole rounds of one query per kind.
  std::vector<PlannedQuery> queries;
  std::size_t kinds_per_round = 0;

  /// Record uploaded for (locations[index], period) during a run; the
  /// bitmaps cycle through a few pre-generated periods per location.
  [[nodiscard]] ptm::TrafficRecord new_record(std::size_t index,
                                              std::uint64_t period) const;

  std::vector<std::vector<ptm::Bitmap>> templates;  ///< per location
};

/// Generates all inputs and the expected answer of every query, from a
/// QueryService fed the history in-process.
[[nodiscard]] Inputs make_inputs(const Shape& shape, std::uint64_t seed);

/// Mean relative error of the expected answers against the planted counts
/// over the persistent queries.
[[nodiscard]] double planted_mean_relative_error(const Inputs& inputs);

/// True when `got` is the same answer as `want`: same status, complete
/// coverage, bit-identical estimate and outcome.
[[nodiscard]] bool same_answer(const ptm::QueryResponse& got,
                               const ptm::QueryResponse& want);

}  // namespace perfbench
