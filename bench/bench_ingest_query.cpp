// §1.2 claim: "the sheer volume of the data that must be addressed... at the
// granularity of jobs sampled frequently". Microbenchmarks of the ingest
// path: raw-format parsing throughput, the full ETL pipeline, and warehouse
// group-by queries over the job table.
//
// The grouped-aggregation section also measures the vectorized engine
// against a row-at-a-time reference (the pre-vectorization execution
// strategy: per-row std::function predicate dispatch, string-concatenated
// group keys) and the thread-scaling curve, writing both to
// BENCH_query.json for cross-PR tracking, together with the ETL layer
// (flat raw decode MiB/s and the full pipeline at 1/2/4 threads).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"

namespace {

using namespace supremm;

const pipeline::PipelineResult& micro_run() {
  static const pipeline::PipelineResult run =
      bench::make_run(facility::ranger(), 0.005, 4, /*maintenance=*/false);
  return run;
}

/// Synthetic wide job table for the aggregation benchmarks: large enough
/// (1M rows) that per-row dispatch cost dominates over cache warmup.
warehouse::Table make_agg_table(std::size_t rows) {
  warehouse::Table t("agg_bench", {{"user", warehouse::ColType::kString},
                                   {"app", warehouse::ColType::kString},
                                   {"end", warehouse::ColType::kInt64},
                                   {"cpu_idle", warehouse::ColType::kDouble},
                                   {"node_hours", warehouse::ColType::kDouble}});
  std::mt19937_64 rng(bench::kSeed);
  std::uniform_int_distribution<int> user(0, 199);
  std::uniform_int_distribution<int> app(0, 49);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  std::vector<std::string> users(200);
  std::vector<std::string> apps(50);
  // GCC 12 emits a bogus -Wrestrict for inlined std::string concatenation
  // here (GCC bug 105329); the loop is plain prefix + decimal-index naming.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i] = std::string("u") + std::to_string(i);
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    apps[i] = std::string("app") + std::to_string(i);
  }
#pragma GCC diagnostic pop
  for (std::size_t r = 0; r < rows; ++r) {
    t.append()
        .set("user", users[static_cast<std::size_t>(user(rng))])
        .set("app", apps[static_cast<std::size_t>(app(rng))])
        .set("end", static_cast<std::int64_t>(r % (30 * common::kDay)))
        .set("cpu_idle", frac(rng))
        .set("node_hours", 1.0 + 100.0 * frac(rng));
  }
  t.rebuild_zone_index();
  return t;
}

const warehouse::Table& agg_table() {
  static const warehouse::Table t = make_agg_table(1'000'000);
  return t;
}

/// The pre-vectorization execution strategy, kept as a benchmark reference:
/// row-at-a-time scan, per-row std::function predicate, group keys built by
/// string concatenation, aggregation state addressed through a string map.
warehouse::Table legacy_group_by(const warehouse::Table& t,
                                 const std::function<bool(const warehouse::Table&,
                                                          std::size_t)>& pred) {
  struct State {
    double wvsum = 0, wsum = 0, sum = 0;
    std::int64_t n = 0;
  };
  std::unordered_map<std::string, std::size_t> groups;
  std::vector<std::string> order;
  std::vector<State> states;
  const auto& user = t.col("user");
  const auto& idle = t.col("cpu_idle");
  const auto& nh = t.col("node_hours");
  for (std::size_t r = 0; r < t.rows(); ++r) {
    if (pred && !pred(t, r)) continue;
    const std::string key(user.as_string(r));
    auto [it, inserted] = groups.emplace(key, states.size());
    if (inserted) {
      order.push_back(key);
      states.emplace_back();
    }
    State& s = states[it->second];
    const double v = idle.as_double(r);
    const double w = nh.as_double(r);
    s.wvsum += w * v;
    s.wsum += w;
    s.sum += w;
    ++s.n;
  }
  warehouse::Table out("agg", {{"user", warehouse::ColType::kString},
                               {"idle", warehouse::ColType::kDouble},
                               {"node_hours_sum", warehouse::ColType::kDouble},
                               {"n", warehouse::ColType::kInt64}});
  for (std::size_t g = 0; g < order.size(); ++g) {
    out.append()
        .set("user", order[g])
        .set("idle", states[g].wsum > 0 ? states[g].wvsum / states[g].wsum : 0.0)
        .set("node_hours_sum", states[g].sum)
        .set("n", states[g].n);
  }
  return out;
}

std::vector<warehouse::AggSpec> agg_specs() {
  return {{"cpu_idle", warehouse::AggKind::kWeightedMean, "node_hours", "idle"},
          {"node_hours", warehouse::AggKind::kSum, "", ""},
          {"", warehouse::AggKind::kCount, "", "n"}};
}

void BM_ParseRawFile(benchmark::State& state) {
  const auto& run = micro_run();
  const std::string& content = run.files.front().content;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto parsed = taccstats::parse_raw(content);
    benchmark::DoNotOptimize(parsed);
    bytes += content.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ParseRawFile);

void BM_IngestPipeline(benchmark::State& state) {
  const auto& run = micro_run();
  const auto science = etl::project_science_map(*run.population);
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = run.span;
  cfg.cluster = run.spec.name;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const etl::IngestPipeline ingest(cfg);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto result = ingest.run(run.files, run.acct, run.lariat_records, run.catalogue, science);
    benchmark::DoNotOptimize(result);
    bytes += result.stats.bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["jobs"] = static_cast<double>(run.result.jobs.size());
}
BENCHMARK(BM_IngestPipeline)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_WarehouseGroupByLegacy(benchmark::State& state) {
  const auto& table = agg_table();
  for (auto _ : state) {
    auto g = legacy_group_by(table, {});
    benchmark::DoNotOptimize(g);
  }
  state.counters["rows"] = static_cast<double>(table.rows());
}
BENCHMARK(BM_WarehouseGroupByLegacy);

void BM_WarehouseGroupBy(benchmark::State& state) {
  const auto& table = agg_table();
  for (auto _ : state) {
    auto g = warehouse::Query(table)
                 .group_by({"user"})
                 .aggregate(agg_specs())
                 .threads(static_cast<std::size_t>(state.range(0)))
                 .run();
    benchmark::DoNotOptimize(g);
  }
  state.counters["rows"] = static_cast<double>(table.rows());
}
BENCHMARK(BM_WarehouseGroupBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ProfileAnalyzer(benchmark::State& state) {
  const auto& run = micro_run();
  for (auto _ : state) {
    xdmod::ProfileAnalyzer an(run.result.jobs);
    auto tops = an.top_profiles(xdmod::GroupBy::kUser, 5);
    benchmark::DoNotOptimize(tops);
  }
}
BENCHMARK(BM_ProfileAnalyzer);

void BM_PersistenceAnalysis(benchmark::State& state) {
  const auto& run = micro_run();
  for (auto _ : state) {
    auto rep = xdmod::persistence_analysis(run.result.series, {"mem_used", "cpu_idle"},
                                           {10, 30, 100});
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_PersistenceAnalysis);

using supremm::bench::seconds_since;

/// Median-of-reps wall time for `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The ETL layer behind BENCH_query.json: raw MiB/s of the flat decode
/// alone over the fixed micro-run file set, and of IngestPipeline::run over
/// the same files at 1/2/4 threads.
void record_etl(bench::BenchJson& json) {
  const auto& run = micro_run();
  constexpr int kReps = 5;
  double bytes = 0;
  for (const auto& f : run.files) bytes += static_cast<double>(f.content.size());
  const double mib = bytes / (1024.0 * 1024.0);

  const double t_parse = time_median(kReps, [&] {
    for (const auto& f : run.files) {
      auto parsed = taccstats::parse_raw(f.content);
      benchmark::DoNotOptimize(parsed);
    }
  });
  json.record("etl_parse")
      .num("files", static_cast<double>(run.files.size()))
      .num("raw_mib", mib)
      .num("seconds", t_parse)
      .num("raw_mib_per_s", mib / t_parse);
  std::printf("[etl] parse %zu files (%.1f MiB): %.4f s (%.1f MiB/s)\n", run.files.size(), mib,
              t_parse, mib / t_parse);

  const auto science = etl::project_science_map(*run.population);
  double t1 = 0.0;
  for (const std::size_t threads : {1, 2, 4}) {
    etl::IngestConfig cfg;
    cfg.start = run.start;
    cfg.span = run.span;
    cfg.cluster = run.spec.name;
    cfg.threads = threads;
    const etl::IngestPipeline ingest(cfg);
    const double t = time_median(kReps, [&] {
      auto result = ingest.run(run.files, run.acct, run.lariat_records, run.catalogue, science);
      benchmark::DoNotOptimize(result);
    });
    if (threads == 1) t1 = t;
    json.record("etl_ingest")
        .num("threads", static_cast<double>(threads))
        .num("seconds", t)
        .num("raw_mib_per_s", mib / t)
        .num("speedup_vs_1thread", t1 / t);
    std::printf("[etl] ingest %zu thread(s): %.4f s (%.1f MiB/s, %.2fx vs 1 thread)\n",
                threads, t, mib / t, t1 / t);
  }
}

/// The grouped-aggregation scaling study behind BENCH_query.json: legacy
/// row-at-a-time engine vs the vectorized engine at 1/2/4/8 threads.
void write_query_json() {
  const auto& table = agg_table();
  const double rows = static_cast<double>(table.rows());
  constexpr int kReps = 5;
  bench::BenchJson json("query");
  record_etl(json);

  const double t_legacy = time_median(kReps, [&] {
    auto g = legacy_group_by(table, {});
    benchmark::DoNotOptimize(g);
  });
  json.record("group_by_legacy_scalar")
      .num("seconds", t_legacy)
      .num("rows_per_s", rows / t_legacy);

  double t1 = 0.0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    const double t = time_median(kReps, [&] {
      auto g = warehouse::Query(table)
                   .group_by({"user"})
                   .aggregate(agg_specs())
                   .threads(threads)
                   .run();
      benchmark::DoNotOptimize(g);
    });
    if (threads == 1) t1 = t;
    json.record("group_by_vectorized")
        .num("threads", static_cast<double>(threads))
        .num("seconds", t)
        .num("rows_per_s", rows / t)
        .num("speedup_vs_1thread", t1 / t)
        .num("speedup_vs_legacy", t_legacy / t);
    std::printf("[scaling] group-by %zu thread(s): %.4f s (%.1f Mrows/s, %.2fx vs "
                "legacy, %.2fx vs 1 thread)\n",
                threads, t, rows / t / 1e6, t_legacy / t, t1 / t);
  }
  json.write("BENCH_query.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_query_json();
  return 0;
}
