#include "inputs.hpp"

#include <cmath>
#include <cstring>
#include <random>

#include "common/random.hpp"
#include "core/encoding.hpp"
#include "harness.hpp"
#include "query/query_service.hpp"

namespace perfbench {
namespace {

constexpr double kLoadFactor = 2.0;          // f of Eq. 2 (§VI)
constexpr std::uint64_t kVolumeMin = 2001;   // volumes in (2000, 10000]
constexpr std::uint64_t kVolumeMax = 10000;
constexpr std::size_t kPlantedMin = 300;     // common vehicles per group
constexpr std::size_t kPlantedMax = 800;
constexpr std::size_t kTemplatesPerLocation = 16;

// One period's bitmap at a location: the group's common vehicles at their
// fixed bits plus `volume - common` uniform transient bits.
ptm::Bitmap make_bitmap(const std::vector<std::uint64_t>& common_raw,
                        std::uint64_t volume, std::mt19937_64& rng) {
  const std::size_t m =
      ptm::plan_bitmap_size(static_cast<double>(volume), kLoadFactor);
  ptm::Bitmap bits(m);
  for (std::uint64_t raw : common_raw) bits.set(raw & (m - 1));
  for (std::uint64_t i = common_raw.size(); i < volume; ++i) {
    bits.set(rng() & (m - 1));
  }
  return bits;
}

std::vector<std::uint64_t> window_periods(std::uint64_t first,
                                          std::size_t count) {
  std::vector<std::uint64_t> periods(count);
  for (std::size_t i = 0; i < count; ++i) periods[i] = first + i;
  return periods;
}

}  // namespace

const char* kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint: return "point";
    case QueryKind::kRecent: return "recent";
    case QueryKind::kP2P: return "p2p";
    case QueryKind::kCorridor: return "corridor";
  }
  return "?";
}

ptm::TrafficRecord Inputs::new_record(std::size_t index,
                                      std::uint64_t period) const {
  const auto& pool = templates[index];
  return ptm::TrafficRecord{locations[index], period,
                            pool[period % pool.size()]};
}

Inputs make_inputs(const Shape& shape, std::uint64_t seed) {
  Inputs in;
  in.shape = shape;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  ptm::Xoshiro256 secrets_rng(seed ^ 0x5045524642ULL);
  const ptm::VehicleEncoder encoder(ptm::EncodingParams{});
  const auto volume = [&] {
    return kVolumeMin + rng() % (kVolumeMax - kVolumeMin + 1);
  };

  // Locations and the raw hashes of each location's common vehicles.
  std::vector<std::vector<std::uint64_t>> common_raw;
  for (std::size_t g = 0; g < shape.groups; ++g) {
    const std::size_t planted =
        kPlantedMin + rng() % (kPlantedMax - kPlantedMin + 1);
    in.planted.push_back(planted);
    std::vector<ptm::VehicleSecrets> vehicles;
    for (std::size_t v = 0; v < planted; ++v) {
      vehicles.push_back(ptm::VehicleSecrets::create(
          (g + 1) * 1'000'000 + v, encoder.params().s, secrets_rng));
    }
    for (std::size_t j = 0; j < 3; ++j) {
      const std::uint64_t location = 100 + 3 * g + j;
      in.locations.push_back(location);
      std::vector<std::uint64_t> raw;
      for (const auto& vehicle : vehicles) {
        raw.push_back(encoder.raw_hash(vehicle, location));
      }
      common_raw.push_back(std::move(raw));
    }
  }

  for (std::size_t p = 0; p < shape.history_periods; ++p) {
    for (std::size_t i = 0; i < in.locations.size(); ++i) {
      in.history.push_back(ptm::TrafficRecord{
          in.locations[i], p, make_bitmap(common_raw[i], volume(), rng)});
    }
  }
  for (std::size_t i = 0; i < in.locations.size(); ++i) {
    std::vector<ptm::Bitmap> pool;
    for (std::size_t k = 0; k < kTemplatesPerLocation; ++k) {
      pool.push_back(make_bitmap(common_raw[i], volume(), rng));
    }
    in.templates.push_back(std::move(pool));
  }

  // The query mix: each round picks a group and a window of periods and
  // asks one question of every kind about it.
  in.kinds_per_round = shape.recent_queries ? 4 : 3;
  const std::size_t last_start = shape.history_periods - shape.window;
  for (std::size_t r = 0; r < shape.query_rounds; ++r) {
    const std::size_t g = rng() % shape.groups;
    const std::uint64_t* loc = &in.locations[3 * g];
    const auto periods = window_periods(rng() % (last_start + 1), shape.window);
    const double planted = static_cast<double>(in.planted[g]);
    const std::size_t a = rng() % 3;
    const std::size_t b = (a + 1 + rng() % 2) % 3;
    in.queries.push_back({QueryKind::kPoint,
                          ptm::PointPersistentQuery{loc[a], periods}, planted,
                          {}});
    if (shape.recent_queries) {
      in.queries.push_back(
          {QueryKind::kRecent,
           ptm::RecentPersistentQuery{loc[b], shape.window}, planted, {}});
    }
    in.queries.push_back({QueryKind::kP2P,
                          ptm::P2PPersistentQuery{loc[a], loc[b], periods},
                          planted, {}});
    in.queries.push_back(
        {QueryKind::kCorridor,
         ptm::CorridorQuery{{loc[0], loc[1], loc[2]}, periods}, planted, {}});
  }

  ptm::QueryService reference;
  for (const auto& record : in.history) {
    if (!reference.ingest(record).is_ok()) die("reference ingest failed");
  }
  for (auto& q : in.queries) q.expected = reference.run(q.request);
  return in;
}

double planted_mean_relative_error(const Inputs& inputs) {
  double sum = 0;
  for (const auto& q : inputs.queries) {
    sum += std::abs(q.expected.summary.value - q.planted) / q.planted;
  }
  return sum / static_cast<double>(inputs.queries.size());
}

bool same_answer(const ptm::QueryResponse& got,
                 const ptm::QueryResponse& want) {
  return got.ok() && want.ok() && got.coverage.complete() &&
         got.result.index() == want.result.index() &&
         got.summary.outcome == want.summary.outcome &&
         std::memcmp(&got.summary.value, &want.summary.value,
                     sizeof(double)) == 0;
}

}  // namespace perfbench
