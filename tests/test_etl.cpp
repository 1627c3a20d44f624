// Tests for the ingest pipeline: job summaries, the system series, metric
// plumbing and the warehouse loader - over a full (small) simulated run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "sim_fixture.h"

namespace fa = supremm::facility;
namespace etl = supremm::etl;
namespace sc = supremm::common;
using supremm::testing::small_ranger_run;

// --- metric catalogue -------------------------------------------------------

TEST(JobMetrics, KeyMetricNamesMatchPaper) {
  const auto& names = etl::key_metric_names();
  ASSERT_EQ(names.size(), 8u);  // §4.2: eight key metrics
  for (const char* m : {"cpu_idle", "cpu_flops", "mem_used", "mem_used_max",
                        "io_scratch_write", "io_work_write", "net_ib_tx", "net_lnet_tx"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), m), names.end()) << m;
  }
}

TEST(JobMetrics, MetricValueDispatch) {
  etl::JobSummary j;
  j.cpu_idle = 0.25;
  j.mem_used_gb = 7.5;
  j.flops_valid = true;
  j.cpu_flops_gf_node = 3.0;
  EXPECT_DOUBLE_EQ(etl::metric_value(j, "cpu_idle"), 0.25);
  EXPECT_DOUBLE_EQ(etl::metric_value(j, "mem_used"), 7.5);
  EXPECT_DOUBLE_EQ(etl::metric_value(j, "cpu_flops"), 3.0);
  EXPECT_THROW((void)etl::metric_value(j, "bogus"), supremm::NotFoundError);
}

TEST(JobMetrics, InvalidFlopsIsNaN) {
  etl::JobSummary j;
  j.flops_valid = false;
  j.cpu_flops_gf_node = 99.0;
  EXPECT_TRUE(std::isnan(etl::metric_value(j, "cpu_flops")));
}

// --- full pipeline over the shared fixture ------------------------------

TEST(Ingest, JobsMatchedToAccounting) {
  const auto& run = small_ranger_run();
  ASSERT_GT(run.result.jobs.size(), 20u);
  std::set<fa::JobId> acct_ids;
  for (const auto& a : run.acct) acct_ids.insert(a.job_id);
  for (const auto& j : run.result.jobs) {
    EXPECT_TRUE(acct_ids.count(j.id)) << j.id;
    EXPECT_FALSE(j.user.empty());
    EXPECT_EQ(j.cluster, "ranger");
    EXPECT_GT(j.node_hours, 0.0);
    EXPECT_GE(j.samples, 1u);
  }
}

TEST(Ingest, ShortJobsExcluded) {
  const auto& run = small_ranger_run();
  for (const auto& j : run.result.jobs) {
    EXPECT_GE(j.runtime(), 10 * sc::kMinute);  // paper's §4.1 filter
  }
}

TEST(Ingest, MetricRangesPlausible) {
  const auto& run = small_ranger_run();
  for (const auto& j : run.result.jobs) {
    EXPECT_GE(j.cpu_idle, 0.0);
    EXPECT_LE(j.cpu_idle, 1.0);
    EXPECT_GE(j.cpu_user, 0.0);
    EXPECT_LE(j.cpu_user + j.cpu_idle + j.cpu_system, 1.02);
    EXPECT_GE(j.mem_used_gb, 1.0);   // at least the OS baseline
    EXPECT_LE(j.mem_used_max_gb, 32.1);
    EXPECT_GE(j.mem_used_max_gb, j.mem_used_gb * 0.8);
    if (j.flops_valid) {
      EXPECT_GE(j.cpu_flops_gf_node, 0.0);
      EXPECT_LE(j.cpu_flops_gf_node, run.spec.node.peak_gflops_per_node());
    }
    EXPECT_GE(j.io_scratch_write_mb_s, 0.0);
    EXPECT_GE(j.net_ib_tx_mb_s, 0.0);
  }
}

TEST(Ingest, JobMetricsReflectBehavior) {
  // Each job's measured idle should track the behavior the simulator drew.
  const auto& run = small_ranger_run();
  std::size_t checked = 0;
  for (const auto& j : run.result.jobs) {
    for (const auto& e : run.engine->executions()) {
      if (e.req.id != j.id) continue;
      if (e.runtime() < 2 * sc::kHour) break;  // enough samples to converge
      EXPECT_NEAR(j.cpu_idle, e.req.behavior.idle_frac, 0.12)
          << "job " << j.id;
      EXPECT_NEAR(j.mem_used_gb, 1.6 + e.req.behavior.mem_gb,
                  e.req.behavior.mem_gb * 0.35 + 1.0)
          << "job " << j.id;
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 5u);
}

TEST(Ingest, LnetTracksLustreTraffic) {
  // LNET carries Lustre client traffic: lnet_tx ~ scratch+work writes.
  const auto& run = small_ranger_run();
  for (const auto& j : run.result.jobs) {
    const double lustre_wr = j.io_scratch_write_mb_s + j.io_work_write_mb_s;
    if (lustre_wr < 0.5) continue;
    EXPECT_NEAR(j.net_lnet_tx_mb_s / lustre_wr, 1.02, 0.15) << "job " << j.id;
  }
}

TEST(Ingest, AppResolvedThroughLariat) {
  const auto& run = small_ranger_run();
  std::size_t with_app = 0;
  for (const auto& j : run.result.jobs) {
    if (!j.app.empty()) ++with_app;
  }
  EXPECT_EQ(with_app, run.result.jobs.size());  // every job launched via Lariat
}

TEST(Ingest, ScienceResolvedThroughProjectRegistry) {
  const auto& run = small_ranger_run();
  for (const auto& j : run.result.jobs) {
    EXPECT_FALSE(j.science.empty()) << j.id;
    EXPECT_NO_THROW((void)fa::science_from_name(j.science));
  }
}

TEST(Ingest, StatsAccounting) {
  const auto& run = small_ranger_run();
  const auto& st = run.result.stats;
  EXPECT_GT(st.bytes, 1000000u);
  EXPECT_EQ(st.files, run.files.size());
  EXPECT_GT(st.samples, 1000u);
  EXPECT_GT(st.pairs, st.samples / 2);
  EXPECT_GE(st.jobs_seen, run.result.jobs.size());
}

TEST(Ingest, SystemSeriesShapes) {
  const auto& run = small_ranger_run();
  const auto& ss = run.result.series;
  EXPECT_EQ(ss.bucket, 10 * sc::kMinute);
  EXPECT_EQ(ss.buckets, static_cast<std::size_t>(run.span / ss.bucket));
  EXPECT_EQ(ss.flops_tf.size(), ss.buckets);
  EXPECT_EQ(ss.active_nodes.size(), ss.buckets);

  double max_active = 0, max_up = 0;
  for (std::size_t i = 0; i < ss.buckets; ++i) {
    max_active = std::max(max_active, ss.active_nodes[i]);
    max_up = std::max(max_up, ss.up_nodes[i]);
    EXPECT_LE(ss.active_nodes[i], ss.up_nodes[i] + 1e-9);
    EXPECT_GE(ss.cpu_idle_frac[i], 0.0);
    EXPECT_LE(ss.cpu_idle_frac[i], 1.0);
  }
  EXPECT_LE(max_up, static_cast<double>(run.spec.node_count) + 1e-9);
  EXPECT_GT(max_active, 0.5 * static_cast<double>(run.spec.node_count));
}

TEST(Ingest, FacilityFlopsFarBelowPeak) {
  // Figure 9's headline: actual FLOPS are a few percent of the peak.
  const auto& run = small_ranger_run();
  const auto& f = run.result.series.flops_tf;
  double mean = 0, peak = 0;
  for (const double v : f) {
    mean += v;
    peak = std::max(peak, v);
  }
  mean /= static_cast<double>(f.size());
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 0.10 * run.spec.peak_tflops());
  EXPECT_LT(peak, 0.30 * run.spec.peak_tflops());
}

TEST(Ingest, SeriesAccessorNames) {
  const auto& run = small_ranger_run();
  for (const char* m : {"cpu_flops", "mem_used", "io_scratch_write", "net_ib_tx",
                        "cpu_idle", "active_nodes"}) {
    EXPECT_EQ(run.result.series.series(m).size(), run.result.series.buckets) << m;
  }
  EXPECT_THROW((void)run.result.series.series("bogus"), supremm::NotFoundError);
}

TEST(Ingest, DeterministicAcrossThreadCounts) {
  // DESIGN.md §7: results are bit-identical for any thread count.
  const auto run1 = supremm::testing::make_sim_run(fa::ranger(), 0.004, 3, 5, false, 1);
  const auto run4 = supremm::testing::make_sim_run(fa::ranger(), 0.004, 3, 5, false, 4);
  ASSERT_EQ(run1.result.jobs.size(), run4.result.jobs.size());
  for (std::size_t i = 0; i < run1.result.jobs.size(); ++i) {
    const auto& a = run1.result.jobs[i];
    const auto& b = run4.result.jobs[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.cpu_idle, b.cpu_idle);
    EXPECT_EQ(a.cpu_flops_gf_node, b.cpu_flops_gf_node);
    EXPECT_EQ(a.mem_used_gb, b.mem_used_gb);
    EXPECT_EQ(a.io_scratch_write_mb_s, b.io_scratch_write_mb_s);
  }
  for (std::size_t i = 0; i < run1.result.series.buckets; ++i) {
    EXPECT_EQ(run1.result.series.flops_tf[i], run4.result.series.flops_tf[i]);
    EXPECT_EQ(run1.result.series.active_nodes[i], run4.result.series.active_nodes[i]);
  }
}

TEST(Ingest, RejectsBadConfig) {
  etl::IngestConfig cfg;
  cfg.span = 0;
  EXPECT_THROW(etl::IngestPipeline{cfg}, supremm::InvalidArgument);
  cfg.span = 100;
  cfg.bucket = 0;
  EXPECT_THROW(etl::IngestPipeline{cfg}, supremm::InvalidArgument);
}

TEST(Ingest, ProjectScienceMap) {
  const auto& run = small_ranger_run();
  const auto map = etl::project_science_map(*run.population);
  EXPECT_EQ(map.size(), run.population->size());  // unique projects
  for (const auto& u : run.population->users()) {
    EXPECT_EQ(map.at(u.project), std::string(fa::science_name(u.science)));
  }
}

// --- warehouse loader -----------------------------------------------------

TEST(ToTable, SchemaAndContent) {
  const auto& run = small_ranger_run();
  const auto t = etl::to_table(run.result.jobs);
  EXPECT_EQ(t.rows(), run.result.jobs.size());
  for (const char* col : {"job_id", "user", "app", "science", "node_hours", "cpu_idle",
                          "cpu_flops", "mem_used", "net_ib_tx"}) {
    EXPECT_TRUE(t.has_col(col)) << col;
  }
  // Spot check a row.
  const auto& j = run.result.jobs.front();
  EXPECT_EQ(t.col("job_id").as_int64(0), j.id);
  EXPECT_EQ(t.col("user").as_string(0), j.user);
  EXPECT_DOUBLE_EQ(t.col("cpu_idle").as_double(0), j.cpu_idle);
}

TEST(ToTable, SupportsWarehouseQueries) {
  const auto& run = small_ranger_run();
  const auto t = etl::to_table(run.result.jobs);
  const auto g = supremm::warehouse::Query(t)
                     .group_by({"science"})
                     .aggregate({{"mem_used", supremm::warehouse::AggKind::kWeightedMean,
                                  "node_hours", "mem"},
                                 {"", supremm::warehouse::AggKind::kCount, "", "n"}})
                     .run();
  EXPECT_GE(g.rows(), 3u);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    EXPECT_GT(g.col("mem").as_double(r), 0.0);
  }
}

// --- pinned output bits -----------------------------------------------------
//
// The suites above check self-consistency (strict == salvage on clean data,
// equal results across thread counts, append == from-scratch); a change that
// moved every bit the same way would pass them all. These digests pin the
// exact bits of the ETL's output on the shared fixture: every JobSummary
// field, every series vector, IngestStats, the per-host quality rows and
// quarantines, and two job traces. Doubles are hashed by bit pattern.

namespace {

/// FNV-1a 64 over a typed byte stream; strings carry their length.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (const double d : v) f64(d);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) { h_ = (h_ ^ c) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t jobs_digest(const std::vector<etl::JobSummary>& jobs) {
  Digest d;
  d.u64(jobs.size());
  for (const auto& j : jobs) {
    d.i64(j.id);
    d.str(j.user);
    d.str(j.app);
    d.str(j.science);
    d.str(j.project);
    d.str(j.cluster);
    d.i64(j.submit);
    d.i64(j.start);
    d.i64(j.end);
    d.u64(j.nodes);
    d.u64(j.cores);
    d.f64(j.node_hours);
    d.i64(j.exit_status);
    d.i64(j.failed);
    d.u64(j.samples);
    d.u64(j.reconciled ? 1 : 0);
    d.f64(j.cpu_idle);
    d.f64(j.cpu_flops_gf_node);
    d.u64(j.flops_valid ? 1 : 0);
    d.f64(j.mem_used_gb);
    d.f64(j.mem_used_max_gb);
    d.f64(j.io_scratch_write_mb_s);
    d.f64(j.io_work_write_mb_s);
    d.f64(j.net_ib_tx_mb_s);
    d.f64(j.net_lnet_tx_mb_s);
    d.f64(j.cpu_user);
    d.f64(j.cpu_system);
    d.f64(j.io_scratch_read_mb_s);
    d.f64(j.net_ib_rx_mb_s);
    d.f64(j.net_lnet_rx_mb_s);
    d.f64(j.swap_mb_s);
    d.f64(j.load_mean);
  }
  return d.value();
}

std::uint64_t series_digest(const etl::SystemSeries& s) {
  Digest d;
  d.i64(s.start);
  d.i64(s.bucket);
  d.u64(s.buckets);
  for (const auto* v : {&s.active_nodes, &s.up_nodes, &s.flops_tf, &s.mem_gb_per_node,
                        &s.cpu_user_core_h, &s.cpu_idle_core_h, &s.cpu_system_core_h,
                        &s.scratch_write_mb_s, &s.scratch_read_mb_s, &s.work_write_mb_s,
                        &s.share_mb_s, &s.ib_tx_mb_s, &s.lnet_tx_mb_s, &s.cpu_idle_frac}) {
    d.f64s(*v);
  }
  return d.value();
}

std::uint64_t stats_digest(const etl::IngestStats& s) {
  Digest d;
  for (const std::uint64_t v :
       {s.bytes, s.files, s.samples, s.pairs, s.gaps_skipped, s.jobs_seen, s.jobs_excluded,
        s.quarantined, s.duplicates_dropped, s.reordered, s.resets_clamped,
        s.rollovers_corrected, s.missing_job_end, s.missing_acct, s.missing_lariat,
        s.jobs_reconciled, s.hosts_skewed}) {
    d.u64(v);
  }
  return d.value();
}

std::uint64_t quality_digest(const etl::DataQualityReport& q) {
  Digest d;
  d.i64(q.span);
  d.u64(q.hosts.size());
  for (const auto& h : q.hosts) {
    d.str(h.host);
    for (const std::uint64_t v : {h.files, h.samples, h.pairs, h.quarantined,
                                  h.duplicates_dropped, h.reordered, h.resets, h.rollovers,
                                  h.missing_job_end}) {
      d.u64(v);
    }
    d.i64(h.clock_skew_s);
    d.f64(h.covered_s);
  }
  d.u64(q.quarantines.size());
  for (const auto& x : q.quarantines) {
    d.str(x.source);
    d.u64(x.line);
    d.u64(static_cast<std::uint64_t>(x.reason));
    d.str(x.detail);
  }
  d.u64(q.corrupt_partitions.size());
  return d.value();
}

std::uint64_t trace_digest(const std::vector<etl::TracePoint>& trace) {
  Digest d;
  d.u64(trace.size());
  for (const auto& p : trace) {
    d.i64(p.t);
    d.f64(p.dt);
    d.u64(p.nodes);
    d.f64(p.cpu_idle);
    d.f64(p.cpu_user);
    d.f64(p.flops_gf_node);
    d.u64(p.flops_valid ? 1 : 0);
    d.f64(p.mem_gb_node);
    d.f64(p.scratch_write_mb_s);
    d.f64(p.work_write_mb_s);
    d.f64(p.ib_tx_mb_s);
    d.f64(p.lnet_tx_mb_s);
  }
  return d.value();
}

struct Pinned {
  std::uint64_t jobs, series, stats, quality;
};

etl::IngestResult ingest_fixture(const std::vector<supremm::taccstats::RawFile>& files,
                                 const std::vector<supremm::accounting::AccountingRecord>& acct,
                                 const std::vector<supremm::lariat::LariatRecord>& lrt,
                                 etl::IngestMode mode, std::size_t threads) {
  const auto& run = small_ranger_run();
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = run.span;
  cfg.cluster = run.spec.name;
  cfg.threads = threads;
  cfg.mode = mode;
  return etl::IngestPipeline(cfg).run(files, acct, lrt, run.catalogue,
                                      etl::project_science_map(*run.population));
}

void expect_pinned(const etl::IngestResult& r, const Pinned& want) {
  EXPECT_EQ(jobs_digest(r.jobs), want.jobs) << std::hex << "jobs 0x" << jobs_digest(r.jobs);
  EXPECT_EQ(series_digest(r.series), want.series)
      << std::hex << "series 0x" << series_digest(r.series);
  EXPECT_EQ(stats_digest(r.stats), want.stats)
      << std::hex << "stats 0x" << stats_digest(r.stats);
  EXPECT_EQ(quality_digest(r.quality), want.quality)
      << std::hex << "quality 0x" << quality_digest(r.quality);
}

// Recorded from the ETL before the flat raw decode replaced the nested one.
constexpr Pinned kStrictBits{0xdbdeb22a9e6ec0e7ULL, 0x20a6b1c2c9196b97ULL,
                               0xc6f680d426680beeULL, 0x80edfe5961b504a4ULL};
constexpr Pinned kChaosBits{0x65b52a009bbc2d89ULL, 0x7a4b10eb302a6ec2ULL,
                              0xbe452b4d22514eb5ULL, 0xb1f0b713e47bc870ULL};
constexpr std::uint64_t kTraceBits[2] = {0xf737f521e8fad7b5ULL, 0x62e55b95c1ef01ecULL};

}  // namespace

TEST(PinnedBits, StrictOneThread) {
  const auto& run = small_ranger_run();
  expect_pinned(ingest_fixture(run.files, run.acct, run.lariat_records,
                               etl::IngestMode::kStrict, 1),
                kStrictBits);
}

TEST(PinnedBits, StrictFourThreads) {
  const auto& run = small_ranger_run();
  expect_pinned(ingest_fixture(run.files, run.acct, run.lariat_records,
                               etl::IngestMode::kStrict, 4),
                kStrictBits);
}

TEST(PinnedBits, SalvageChaos) {
  const auto& run = small_ranger_run();
  auto files = run.files;
  auto acct = run.acct;
  auto lrt = run.lariat_records;
  const auto plan = supremm::faultsim::FaultPlan::profile("chaos", 20130313);
  (void)supremm::faultsim::FaultInjector(plan).apply(files, acct, lrt);
  const auto r = ingest_fixture(files, acct, lrt, etl::IngestMode::kSalvage, 4);
  EXPECT_GT(r.stats.quarantined, 0u);
  expect_pinned(r, kChaosBits);
}

TEST(PinnedBits, JobTraces) {
  const auto& run = small_ranger_run();
  const auto& jobs = run.result.jobs;
  ASSERT_GT(jobs.size(), 2u);
  // The longest-sampled job and the median job by id.
  const auto longest = std::max_element(
      jobs.begin(), jobs.end(),
      [](const etl::JobSummary& a, const etl::JobSummary& b) { return a.samples < b.samples; });
  const fa::JobId ids[2] = {longest->id, jobs[jobs.size() / 2].id};
  for (int i = 0; i < 2; ++i) {
    const auto trace = etl::extract_job_trace(run.files, ids[i]);
    EXPECT_FALSE(trace.empty()) << ids[i];
    EXPECT_EQ(trace_digest(trace), kTraceBits[i])
        << std::hex << "job " << std::dec << ids[i] << " trace 0x" << std::hex
        << trace_digest(trace);
  }
}
