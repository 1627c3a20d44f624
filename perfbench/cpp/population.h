// Seeded inputs of the benchmark: the jobs population the query workloads
// serve and the requests their clients send. Everything is a pure function of the seed (and the request
// index), so the same seed always yields the same inputs; the library under
// test receives only what these functions generate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "etl/job_summary.h"

namespace perfbench {

/// Days the population's end times span: one and a half rollup quarters
/// (a quarter is 84 days), so quarter and month series have several buckets.
inline constexpr std::int64_t kSpanDays = 126;

/// A paper-like XDMoD jobs realm: about a thousand users with Zipf activity,
/// the facility model's standard application catalogue, three clusters.
struct Population {
  std::vector<supremm::etl::JobSummary> jobs;  // ascending job id
  std::vector<std::string> users;              // most active first
  std::vector<std::string> apps;               // most popular first
  std::vector<std::string> clusters;           // busiest first
};

[[nodiscard]] Population make_population(std::uint64_t seed, std::size_t rows);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(supremm::common::RngStream& g) const;

 private:
  std::vector<double> cdf_;
};

/// Which of `counts.size()` templates request `index` of `stream` uses. The
/// mix is exact: every block of sum(counts) consecutive requests holds
/// template t exactly counts[t] times, in an order shuffled from `seed`, so
/// seeds change the literals and the order but never the proportions.
[[nodiscard]] std::size_t deck_pick(const std::vector<int>& counts, std::uint64_t seed,
                                    const char* stream, std::uint64_t index);

/// Request `index` of the adhoc stream under `seed`: a triage shape the
/// rollups cannot serve, every one distinct.
[[nodiscard]] std::string adhoc_request(std::uint64_t seed, std::uint64_t index);

/// The federated portal session's standing panels, one round in the seed's
/// order: 4 templates (facility-wide series, breakdowns, one-cluster series
/// the shard catalog prunes, recent windows) x 12 variants that cover every
/// grain, key list, aggregate list and cluster equally often, so every seed
/// sends the same mix and only literals and order change.
[[nodiscard]] std::vector<std::string> federated_panels(const Population& pop,
                                                        std::uint64_t seed);

}  // namespace perfbench
