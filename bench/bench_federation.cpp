// DESIGN.md §17: federated scatter-gather over the versioned binary shard
// protocol. This bench builds one large synthetic jobs population and places
// it two ways: the adversarial (cluster, day)-cell placement across {1,2,5}
// shards, where clusters span shards and shards ship day cells, and one
// shard per cluster, the only placement where the catalog prunes and shards
// fold tuple and group totals. Each leg first gates on in-bench bit-identity
// — every merged scatter-gather answer must equal the single warehouse
// bit-for-bit — then measures coordinator-observed latency of a federated
// query mix against a like-for-like baseline: one warehouse that, like the
// shards, serves subsumable queries from its rollups. Response bytes and
// fold levels come from the shard reports. Results go to
// BENCH_federation.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "federation/executor.h"
#include "federation/federation.h"
#include "federation/transport.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"

namespace {

using namespace supremm;
using bench::seconds_since;

constexpr std::size_t kRows = 300'000;
constexpr int kIterations = 25;  // passes over the query mix per leg
constexpr std::size_t kShardCounts[] = {1, 2, 5};
constexpr std::size_t kThreads = 8;

/// The federated mix: facility-wide rollup shapes (a daily series among
/// them: under one shard per cluster every shard ships a tuple total per
/// (day, user, app, cluster), the heaviest answer a portal asks for),
/// per-dimension breakdowns, cluster- and time-filtered queries (the ones
/// catalog pruning bites on), and raw-only shapes every shard must scan for.
const std::vector<std::string>& query_mix() {
  static const std::vector<std::string> mix = {
      "query jobs group day agg count(),sum(node_hours),max(mem_used_max_gb)",
      "query jobs group week agg count(),sum(node_hours)",
      "query jobs group user agg sum(node_hours),wmean(cpu_idle,node_hours)",
      "query jobs group cluster,month agg sum(node_hours),count()",
      "query jobs where cluster = \"c0\" group month agg sum(node_hours),count()",
      "query jobs where end >= 1 and end <= 7257600 group user agg sum(node_hours),count()",
      "query jobs group user,app,cluster agg count(),sum(node_hours),max(mem_used_max_gb)",
      "query jobs where node_hours >= 100 group user agg count()",
      "query jobs group cluster agg mean(end)",
  };
  return mix;
}

/// Exact quantile from sorted raw samples (nearest-rank on n-1).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

std::vector<service::QuerySpec> parse_mix() {
  std::vector<service::QuerySpec> specs;
  for (const std::string& text : query_mix()) {
    service::QuerySpec spec = service::parse_request(text).query;
    spec.threads = kThreads;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The single-warehouse baseline: the un-sharded reference plus its own
/// RollupSet, answering each query the way Service does (rollup cells when
/// subsumable, the raw scan otherwise).
struct SingleWarehouse {
  const warehouse::Table* jobs = nullptr;
  warehouse::rollup::RollupSet rollups;

  [[nodiscard]] warehouse::Table run(const service::QuerySpec& spec) const {
    if (warehouse::rollup::enabled()) {
      if (const auto plan = warehouse::rollup::subsume(service::to_rollup_input(spec))) {
        return warehouse::rollup::serve(rollups, *plan, nullptr);
      }
    }
    warehouse::Query q = service::compile(spec, *jobs);
    return q.run();
  }
};

struct Leg {
  const char* placement;
  std::vector<std::vector<etl::JobSummary>> slices;
};

struct FedBench {
  std::vector<std::unique_ptr<federation::ShardExecutor>> executors;
  std::shared_ptr<federation::Federation> fed;
};

FedBench make_fed(const Leg& leg) {
  FedBench f;
  f.fed = std::make_shared<federation::Federation>();
  for (std::size_t i = 0; i < leg.slices.size(); ++i) {
    federation::ShardExecutor::Options opts;
    opts.rollups = true;
    auto ex = std::make_unique<federation::ShardExecutor>(
        "shard" + std::to_string(i), archive::jobs_table(leg.slices[i]), opts);
    f.fed->add_shard(ex->info(), std::make_shared<federation::LoopbackTransport>(*ex));
    f.executors.push_back(std::move(ex));
  }
  return f;
}

std::vector<std::vector<etl::JobSummary>> by_cluster(const std::vector<etl::JobSummary>& jobs) {
  std::map<std::string, std::vector<etl::JobSummary>> clusters;
  for (const auto& j : jobs) clusters[j.cluster].push_back(j);
  std::vector<std::vector<etl::JobSummary>> slices;
  for (auto& [name, slice] : clusters) slices.push_back(std::move(slice));
  return slices;
}

}  // namespace

int main() {
  bench::print_experiment_header(
      "federation",
      "§17 multi-cluster scatter-gather: merged shard partials, bit-identical");

  auto t0 = std::chrono::steady_clock::now();
  const std::vector<etl::JobSummary> jobs =
      testkit::make_rollup_jobs({.rows = kRows, .seed = bench::kSeed});
  warehouse::Table ref = archive::jobs_table(jobs);
  warehouse::rollup::augment_jobs_table(ref);
  ref.rebuild_zone_index(archive::kDefaultChunkRows);
  const SingleWarehouse single{&ref, warehouse::rollup::build_from_table(ref)};
  std::printf("[setup] %zu jobs, single-warehouse reference and rollups built in %.2fs\n",
              kRows, seconds_since(t0));

  bench::BenchJson json("federation");
  json.record("setup")
      .num("rows", static_cast<double>(kRows))
      .num("mix", static_cast<double>(query_mix().size()))
      .num("threads", static_cast<double>(kThreads));

  const std::vector<service::QuerySpec> specs = parse_mix();

  // Single-warehouse baseline: the same compiled queries against the
  // un-sharded reference and its rollups (what a non-federated deployment
  // answers).
  std::vector<warehouse::Table> baseline;
  std::vector<double> base_ms;
  for (int it = 0; it < kIterations; ++it) {
    for (const service::QuerySpec& spec : specs) {
      const auto tq = std::chrono::steady_clock::now();
      warehouse::Table result = single.run(spec);
      base_ms.push_back(seconds_since(tq) * 1e3);
      if (it == 0) baseline.push_back(std::move(result));
    }
  }
  std::sort(base_ms.begin(), base_ms.end());
  const double base_p50 = quantile(base_ms, 0.5);
  const double base_p99 = quantile(base_ms, 0.99);
  std::printf("[baseline] single warehouse with rollups: p50 %8.3f ms  p99 %8.3f ms\n",
              base_p50, base_p99);
  json.record("single_warehouse").num("p50_ms", base_p50).num("p99_ms", base_p99);

  std::vector<Leg> legs;
  for (const std::size_t nshards : kShardCounts) {
    legs.push_back({"cells", testkit::split_jobs_for_shards(jobs, nshards, bench::kSeed)});
  }
  legs.push_back({"clusters", by_cluster(jobs)});

  for (const Leg& leg : legs) {
    const std::size_t nshards = leg.slices.size();
    t0 = std::chrono::steady_clock::now();
    const FedBench f = make_fed(leg);
    const double build_s = seconds_since(t0);

    // Identity gate: every mix query, merged scatter-gather vs the baseline
    // table. Any bit difference is a hard bench failure.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const service::RemoteResult res = f.fed->run(specs[i]);
      if (!res.complete) {
        std::fprintf(stderr, "bench_federation: incomplete scatter (%s, %zu shards)\n",
                     leg.placement, nshards);
        return 1;
      }
      if (auto diff = testkit::table_diff(*res.table, baseline[i])) {
        std::fprintf(stderr,
                     "bench_federation: %s %zu-shard merge diverged from single "
                     "warehouse: %s\n  %s\n",
                     leg.placement, nshards, diff->c_str(), query_mix()[i].c_str());
        return 1;
      }
    }
    std::printf("[gate] %s x%zu: %zu queries bit-identical to single warehouse\n",
                leg.placement, nshards, specs.size());

    // Scatter-gather latency over the mix, plus what the shard reports say
    // crossed the wire and at which fold level.
    std::vector<double> ms;
    std::size_t pruned_contacts = 0, total_reports = 0, response_bytes = 0;
    std::array<std::size_t, 3> levels{};
    for (int it = 0; it < kIterations; ++it) {
      for (const service::QuerySpec& spec : specs) {
        const auto tq = std::chrono::steady_clock::now();
        const service::RemoteResult res = f.fed->run(spec);
        ms.push_back(seconds_since(tq) * 1e3);
        for (const auto& s : res.shards) {
          ++total_reports;
          response_bytes += s.bytes;
          if (s.outcome == service::RemoteShardReport::Outcome::kPruned) ++pruned_contacts;
          if (s.outcome == service::RemoteShardReport::Outcome::kOk) {
            ++levels[static_cast<std::size_t>(s.level)];
          }
        }
      }
    }
    std::sort(ms.begin(), ms.end());
    const double p50 = quantile(ms, 0.5);
    const double p99 = quantile(ms, 0.99);
    const double prune_rate =
        total_reports > 0
            ? static_cast<double>(pruned_contacts) / static_cast<double>(total_reports)
            : 0.0;
    // Every pass ships the same answers, so per-pass figures are exact.
    const double bytes_per_pass = static_cast<double>(response_bytes) / kIterations;
    const auto per_pass = [](std::size_t n) { return static_cast<double>(n) / kIterations; };
    const double folded = per_pass(levels[1] + levels[2]);

    std::printf("[scatter] %-8s x%zu: p50 %8.3f ms  p99 %8.3f ms  (vs baseline p50 "
                "%.2fx, prune rate %.2f, %.0f response bytes/pass, answers/pass: "
                "%.0f days %.0f tuples %.0f groups)\n",
                leg.placement, nshards, p50, p99, p50 > 0 ? base_p50 / p50 : 0.0,
                prune_rate, bytes_per_pass, per_pass(levels[0]), per_pass(levels[1]),
                per_pass(levels[2]));
    json.record("scatter_gather")
        .str("placement", leg.placement)
        .num("shards", static_cast<double>(nshards))
        .num("build_s", build_s)
        .num("p50_ms", p50)
        .num("p99_ms", p99)
        .num("p50_vs_baseline", base_p50 > 0 ? p50 / base_p50 : 0.0)
        .num("prune_rate", prune_rate)
        .num("response_bytes_per_pass", bytes_per_pass)
        .num("day_answers_per_pass", per_pass(levels[0]))
        .num("tuple_answers_per_pass", per_pass(levels[1]))
        .num("group_answers_per_pass", per_pass(levels[2]));

    // One shard per cluster is exactly where the catalog proves ownership:
    // a planner that never folds there has lost the optimisation.
    if (std::string(leg.placement) == "clusters" && folded == 0.0) {
      std::fprintf(stderr, "bench_federation: cluster placement folded no answers\n");
      return 1;
    }
  }

  json.write("BENCH_federation.json");
  std::printf("[done] federated answers bit-identical at every placement and shard count\n");
  return 0;
}
