// Round-trip property tests for the fault injector + salvage-mode ingest:
// for every FaultPlan profile, salvage recovers 100% of the undamaged
// samples, the quarantine/repair counters match the injection report
// exactly, and the zero-fault plan reproduces the strict-mode IngestResult
// bit-identically at any thread count. Also covers the ingest config
// validation, ParseError source attribution, the salvage reader's
// quarantine vocabulary, and the data-quality surfacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "sim_fixture.h"

namespace etl = supremm::etl;
namespace fs = supremm::faultsim;
namespace sc = supremm::common;
namespace ts = supremm::taccstats;
namespace xd = supremm::xdmod;
using supremm::testing::small_ranger_run;

namespace {

constexpr std::uint64_t kSeed = 20130313;  // arbitrary, fixed

etl::IngestResult run_mode(const std::vector<ts::RawFile>& files,
                           const std::vector<supremm::accounting::AccountingRecord>& acct,
                           const std::vector<supremm::lariat::LariatRecord>& lrt,
                           etl::IngestMode mode, std::size_t threads = 0) {
  const auto& run = small_ranger_run();
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = run.span;
  cfg.cluster = run.spec.name;
  cfg.threads = threads;
  cfg.mode = mode;
  const etl::IngestPipeline pipeline(cfg);
  return pipeline.run(files, acct, lrt, run.catalogue,
                      etl::project_science_map(*run.population));
}

/// Copies of the fixture artifacts with a plan applied (the fixture itself
/// must never be mutated - it is shared by every test in this binary).
struct Damaged {
  std::vector<ts::RawFile> files;
  std::vector<supremm::accounting::AccountingRecord> acct;
  std::vector<supremm::lariat::LariatRecord> lrt;
  fs::InjectionReport report;
};

Damaged inject(const fs::FaultPlan& plan) {
  const auto& run = small_ranger_run();
  Damaged d{run.files, run.acct, run.lariat_records, {}};
  d.report = fs::FaultInjector(plan).apply(d.files, d.acct, d.lrt);
  return d;
}

Damaged inject_profile(std::string_view name) {
  return inject(fs::FaultPlan::profile(name, kSeed));
}

/// Salvage ingest of the clean fixture artifacts, computed once.
const etl::IngestResult& clean_salvage() {
  static const etl::IngestResult r =
      run_mode(small_ranger_run().files, small_ranger_run().acct,
               small_ranger_run().lariat_records, etl::IngestMode::kSalvage);
  return r;
}

void expect_same_stats(const etl::IngestStats& a, const etl::IngestStats& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.gaps_skipped, b.gaps_skipped);
  EXPECT_EQ(a.jobs_seen, b.jobs_seen);
  EXPECT_EQ(a.jobs_excluded, b.jobs_excluded);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.resets_clamped, b.resets_clamped);
  EXPECT_EQ(a.rollovers_corrected, b.rollovers_corrected);
  EXPECT_EQ(a.missing_job_end, b.missing_job_end);
  EXPECT_EQ(a.missing_acct, b.missing_acct);
  EXPECT_EQ(a.missing_lariat, b.missing_lariat);
  EXPECT_EQ(a.jobs_reconciled, b.jobs_reconciled);
  EXPECT_EQ(a.hosts_skewed, b.hosts_skewed);
  EXPECT_TRUE(a == b);
}

void expect_same_doubles(const std::vector<double>& a, const std::vector<double>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same = a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i]));
    EXPECT_TRUE(same) << what << "[" << i << "]: " << a[i] << " vs " << b[i];
    if (!same) break;
  }
}

void expect_same_series(const etl::SystemSeries& a, const etl::SystemSeries& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.bucket, b.bucket);
  ASSERT_EQ(a.buckets, b.buckets);
  expect_same_doubles(a.active_nodes, b.active_nodes, "active_nodes");
  expect_same_doubles(a.up_nodes, b.up_nodes, "up_nodes");
  expect_same_doubles(a.flops_tf, b.flops_tf, "flops_tf");
  expect_same_doubles(a.mem_gb_per_node, b.mem_gb_per_node, "mem_gb_per_node");
  expect_same_doubles(a.cpu_user_core_h, b.cpu_user_core_h, "cpu_user_core_h");
  expect_same_doubles(a.cpu_idle_core_h, b.cpu_idle_core_h, "cpu_idle_core_h");
  expect_same_doubles(a.cpu_system_core_h, b.cpu_system_core_h, "cpu_system_core_h");
  expect_same_doubles(a.scratch_write_mb_s, b.scratch_write_mb_s, "scratch_write_mb_s");
  expect_same_doubles(a.scratch_read_mb_s, b.scratch_read_mb_s, "scratch_read_mb_s");
  expect_same_doubles(a.work_write_mb_s, b.work_write_mb_s, "work_write_mb_s");
  expect_same_doubles(a.share_mb_s, b.share_mb_s, "share_mb_s");
  expect_same_doubles(a.ib_tx_mb_s, b.ib_tx_mb_s, "ib_tx_mb_s");
  expect_same_doubles(a.lnet_tx_mb_s, b.lnet_tx_mb_s, "lnet_tx_mb_s");
  expect_same_doubles(a.cpu_idle_frac, b.cpu_idle_frac, "cpu_idle_frac");
}

void expect_same_jobs(const std::vector<etl::JobSummary>& a,
                      const std::vector<etl::JobSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.user, y.user);
    EXPECT_EQ(x.app, y.app);
    EXPECT_EQ(x.science, y.science);
    EXPECT_EQ(x.project, y.project);
    EXPECT_EQ(x.cluster, y.cluster);
    EXPECT_EQ(x.submit, y.submit);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.nodes, y.nodes);
    EXPECT_EQ(x.cores, y.cores);
    EXPECT_EQ(x.node_hours, y.node_hours);
    EXPECT_EQ(x.exit_status, y.exit_status);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.reconciled, y.reconciled);
    EXPECT_EQ(x.flops_valid, y.flops_valid);
    for (const auto& m : etl::all_metric_names()) {
      const double vx = etl::metric_value(x, m);
      const double vy = etl::metric_value(y, m);
      EXPECT_TRUE(vx == vy || (std::isnan(vx) && std::isnan(vy)))
          << "job " << x.id << " metric " << m << ": " << vx << " vs " << vy;
    }
  }
}

void expect_same_quality(const etl::DataQualityReport& a, const etl::DataQualityReport& b) {
  EXPECT_EQ(a.span, b.span);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    const auto& x = a.hosts[i];
    const auto& y = b.hosts[i];
    EXPECT_EQ(x.host, y.host);
    EXPECT_EQ(x.files, y.files);
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.pairs, y.pairs);
    EXPECT_EQ(x.quarantined, y.quarantined);
    EXPECT_EQ(x.duplicates_dropped, y.duplicates_dropped);
    EXPECT_EQ(x.reordered, y.reordered);
    EXPECT_EQ(x.resets, y.resets);
    EXPECT_EQ(x.rollovers, y.rollovers);
    EXPECT_EQ(x.missing_job_end, y.missing_job_end);
    EXPECT_EQ(x.clock_skew_s, y.clock_skew_s);
    EXPECT_EQ(x.covered_s, y.covered_s);
  }
  ASSERT_EQ(a.quarantines.size(), b.quarantines.size());
  for (std::size_t i = 0; i < a.quarantines.size(); ++i) {
    EXPECT_EQ(a.quarantines[i].source, b.quarantines[i].source);
    EXPECT_EQ(a.quarantines[i].line, b.quarantines[i].line);
    EXPECT_EQ(a.quarantines[i].reason, b.quarantines[i].reason);
  }
}

}  // namespace

// --- fault plans ------------------------------------------------------------

TEST(FaultPlan, ProfileCatalogue) {
  const auto& names = fs::FaultPlan::profile_names();
  ASSERT_FALSE(names.empty());
  for (const char* expected : {"none", "truncation", "garbage", "shuffle", "counter_glitch",
                               "lost_records", "clock_skew", "chaos"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
  for (const auto& n : names) {
    const auto plan = fs::FaultPlan::profile(n, kSeed);
    EXPECT_EQ(plan.seed, kSeed) << n;
    if (n != "none") {
      EXPECT_FALSE(plan.faults.empty()) << n;
    }
  }
  EXPECT_THROW((void)fs::FaultPlan::profile("meteor_strike", kSeed), supremm::NotFoundError);
}

TEST(FaultPlan, ZeroFaultPlanLeavesArtifactsUntouched) {
  const auto& run = small_ranger_run();
  const Damaged d = inject(fs::FaultPlan::none(kSeed));
  EXPECT_FALSE(d.report.any());
  EXPECT_EQ(d.report.expected_quarantined, 0u);
  ASSERT_EQ(d.files.size(), run.files.size());
  for (std::size_t i = 0; i < d.files.size(); ++i) {
    EXPECT_EQ(d.files[i].hostname, run.files[i].hostname);
    EXPECT_EQ(d.files[i].day, run.files[i].day);
    ASSERT_EQ(d.files[i].content, run.files[i].content) << run.files[i].hostname;
  }
  EXPECT_EQ(d.acct.size(), run.acct.size());
  EXPECT_EQ(d.lrt.size(), run.lariat_records.size());
}

TEST(FaultPlan, SameSeedSameDamage) {
  const Damaged a = inject_profile("chaos");
  const Damaged b = inject_profile("chaos");
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    ASSERT_EQ(a.files[i].content, b.files[i].content) << a.files[i].hostname;
  }
  EXPECT_EQ(a.report.expected_quarantined, b.report.expected_quarantined);
  EXPECT_EQ(a.report.samples_lost, b.report.samples_lost);
  EXPECT_EQ(a.report.dropped_acct_jobs, b.report.dropped_acct_jobs);
  EXPECT_EQ(a.report.dropped_lariat_jobs, b.report.dropped_lariat_jobs);
  EXPECT_EQ(a.report.skews, b.report.skews);
}

TEST(FaultPlan, DifferentSeedDifferentDamage) {
  const Damaged a = inject(fs::FaultPlan::profile("chaos", 1));
  const Damaged b = inject(fs::FaultPlan::profile("chaos", 2));
  bool any_diff = a.files.size() != b.files.size();
  for (std::size_t i = 0; !any_diff && i < a.files.size(); ++i) {
    any_diff = a.files[i].content != b.files[i].content;
  }
  EXPECT_TRUE(any_diff);
}

// --- the zero-fault identity ------------------------------------------------

TEST(SalvageRoundTrip, CleanDataBitIdenticalToStrict) {
  const auto& strict = small_ranger_run().result;
  const auto& salvage = clean_salvage();
  expect_same_stats(salvage.stats, strict.stats);
  EXPECT_EQ(salvage.stats.quarantined, 0u);
  EXPECT_EQ(salvage.stats.duplicates_dropped, 0u);
  EXPECT_EQ(salvage.stats.reordered, 0u);
  EXPECT_EQ(salvage.stats.missing_job_end, 0u);
  EXPECT_EQ(salvage.stats.hosts_skewed, 0u);
  EXPECT_EQ(salvage.stats.jobs_reconciled, 0u);
  EXPECT_EQ(salvage.stats.missing_lariat, 0u);
  expect_same_jobs(salvage.jobs, strict.jobs);
  expect_same_series(salvage.series, strict.series);
}

TEST(SalvageRoundTrip, BitIdenticalAcrossThreadCounts) {
  const Damaged d = inject_profile("chaos");
  const auto r1 = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage, 1);
  const auto r3 = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage, 3);
  expect_same_stats(r1.stats, r3.stats);
  expect_same_jobs(r1.jobs, r3.jobs);
  expect_same_series(r1.series, r3.series);
  expect_same_quality(r1.quality, r3.quality);
}

// --- per-profile round trips ------------------------------------------------

TEST(SalvageRoundTrip, Truncation) {
  const Damaged d = inject_profile("truncation");
  ASSERT_GT(d.report.files_truncated, 0u);
  EXPECT_EQ(d.report.expected_quarantined, d.report.files_truncated);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  // Exactly one quarantined partial row per truncation, and every sample the
  // truncation did not destroy is recovered.
  EXPECT_EQ(r.stats.quarantined - clean.stats.quarantined, d.report.expected_quarantined);
  EXPECT_EQ(r.stats.samples, clean.stats.samples - d.report.samples_lost);
  EXPECT_EQ(r.quality.quarantines.size(), r.stats.quarantined);
  for (const auto& q : r.quality.quarantines) {
    EXPECT_EQ(q.reason, ts::QuarantineReason::kShortRow);
    EXPECT_FALSE(q.source.empty());
    EXPECT_GT(q.line, 0u);
  }
}

TEST(SalvageRoundTrip, GarbageAndInterleave) {
  const Damaged d = inject_profile("garbage");
  ASSERT_GT(d.report.garbage_lines, 0u);
  ASSERT_GT(d.report.interleaved_rows, 0u);
  EXPECT_EQ(d.report.expected_quarantined,
            d.report.garbage_lines + d.report.interleaved_rows);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  EXPECT_EQ(r.stats.quarantined - clean.stats.quarantined, d.report.expected_quarantined);
  // Garbage destroys no samples: recovery is 100%.
  EXPECT_EQ(r.stats.samples, clean.stats.samples);
  EXPECT_EQ(r.stats.duplicates_dropped, 0u);
  EXPECT_EQ(r.stats.reordered, 0u);
}

TEST(SalvageRoundTrip, DuplicatesAndReorderRepairExactly) {
  const Damaged d = inject_profile("shuffle");
  ASSERT_GT(d.report.duplicated_samples, 0u);
  ASSERT_GT(d.report.reorder_swaps, 0u);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  EXPECT_EQ(r.stats.duplicates_dropped, d.report.duplicated_samples);
  EXPECT_EQ(r.stats.reordered, d.report.reorder_swaps);
  EXPECT_EQ(r.stats.quarantined, 0u);
  EXPECT_EQ(r.stats.samples, clean.stats.samples);
  // Dedup + re-sort reconstruct the clean timeline exactly, so the derived
  // data is bit-identical to the clean run.
  expect_same_jobs(r.jobs, clean.jobs);
  expect_same_series(r.series, clean.series);
}

TEST(SalvageRoundTrip, CounterGlitches) {
  const Damaged d = inject_profile("counter_glitch");
  ASSERT_GT(d.report.counter_resets, 0u);
  ASSERT_GT(d.report.counter_rollovers, 0u);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  EXPECT_EQ(r.stats.resets_clamped, d.report.counter_resets);
  EXPECT_EQ(r.stats.rollovers_corrected, d.report.counter_rollovers);
  EXPECT_EQ(r.stats.quarantined, 0u);
  EXPECT_EQ(r.stats.samples, clean.stats.samples);
  EXPECT_EQ(r.stats.pairs, clean.stats.pairs);
}

TEST(SalvageRoundTrip, RolloverCorrectionPreservesRates) {
  fs::FaultPlan plan;
  plan.seed = kSeed;
  plan.add(fs::FaultKind::kCounterRollover, 1.0);
  const Damaged d = inject(plan);
  ASSERT_GT(d.report.counter_rollovers, 0u);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  EXPECT_EQ(r.stats.rollovers_corrected, d.report.counter_rollovers);
  // A u64 wrap carries the true delta in modular arithmetic: the corrected
  // rates are numerically identical to the undamaged ones.
  expect_same_jobs(r.jobs, clean.jobs);
  expect_same_series(r.series, clean.series);
}

TEST(SalvageRoundTrip, LostRecordsReconcile) {
  const Damaged d = inject_profile("lost_records");
  ASSERT_GT(d.report.job_ends_dropped, 0u);
  ASSERT_GT(d.report.acct_dropped, 0u);
  ASSERT_GT(d.report.lariat_dropped, 0u);
  EXPECT_EQ(d.report.dropped_acct_jobs.size(), d.report.acct_dropped);
  EXPECT_EQ(d.report.dropped_lariat_jobs.size(), d.report.lariat_dropped);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  ASSERT_EQ(clean.stats.missing_lariat, 0u);  // clean side channels are complete

  EXPECT_EQ(r.stats.missing_job_end, d.report.job_ends_dropped);
  EXPECT_EQ(r.stats.missing_acct, d.report.acct_dropped);

  // Every summary flagged reconciled corresponds to a dropped accounting
  // record, and at least one dropped job was rebuilt from samples + Lariat.
  const std::set<supremm::facility::JobId> dropped_acct(d.report.dropped_acct_jobs.begin(),
                                                        d.report.dropped_acct_jobs.end());
  const std::set<supremm::facility::JobId> dropped_lrt(d.report.dropped_lariat_jobs.begin(),
                                                       d.report.dropped_lariat_jobs.end());
  std::uint64_t reconciled = 0;
  std::uint64_t without_lariat = 0;
  for (const auto& j : r.jobs) {
    if (j.reconciled) {
      ++reconciled;
      EXPECT_EQ(dropped_acct.count(j.id), 1u) << j.id;
      EXPECT_FALSE(j.user.empty());
    } else {
      EXPECT_EQ(dropped_acct.count(j.id), 0u) << j.id;
    }
    if (dropped_lrt.count(j.id) != 0) ++without_lariat;
  }
  EXPECT_GT(reconciled, 0u);
  EXPECT_EQ(r.stats.jobs_reconciled, reconciled);
  EXPECT_EQ(r.stats.missing_lariat, without_lariat);
}

TEST(SalvageRoundTrip, ClockSkewCorrectedExactly) {
  const Damaged d = inject_profile("clock_skew");
  ASSERT_GT(d.report.hosts_skewed, 0u);
  ASSERT_EQ(d.report.skews.size(), d.report.hosts_skewed);
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  EXPECT_EQ(r.stats.hosts_skewed, d.report.hosts_skewed);
  std::map<std::string, std::int64_t> injected(d.report.skews.begin(), d.report.skews.end());
  for (const auto& h : r.quality.hosts) {
    const auto it = injected.find(h.host);
    EXPECT_EQ(h.clock_skew_s, it == injected.end() ? 0 : it->second) << h.host;
  }
  // The estimated offset equals the injected one, so correction restores the
  // clean timeline exactly.
  expect_same_jobs(r.jobs, clean.jobs);
  expect_same_series(r.series, clean.series);
}

TEST(SalvageRoundTrip, ChaosQuarantineAccountingIsExact) {
  const Damaged d = inject_profile("chaos");
  ASSERT_TRUE(d.report.any());
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  const auto& clean = clean_salvage();
  // Even with every fault kind composed, each quarantined line is one the
  // injector predicted.
  EXPECT_EQ(r.stats.quarantined, d.report.expected_quarantined);
  EXPECT_EQ(r.quality.quarantines.size(), r.stats.quarantined);
  EXPECT_EQ(r.quality.total_quarantined(), r.stats.quarantined);
  // Recovery bounds: nothing beyond the destroyed samples is lost; at most
  // the injected duplicates are dropped on top.
  EXPECT_GE(r.stats.samples, clean.stats.samples - d.report.samples_lost -
                                 d.report.duplicated_samples);
  EXPECT_LE(r.stats.samples, clean.stats.samples - d.report.samples_lost +
                                 d.report.duplicated_samples);
  EXPECT_FALSE(r.jobs.empty());
  EXPECT_GT(r.quality.facility_coverage(), 0.0);
  EXPECT_LE(r.quality.facility_coverage(), 1.0 + 1e-9);
}

TEST(SalvageRoundTrip, StrictModeAbortsOnDamage) {
  const Damaged d = inject_profile("garbage");
  try {
    (void)run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kStrict);
    FAIL() << "strict ingest of damaged data must throw";
  } catch (const supremm::ParseError& e) {
    // The error names the damaged host/day file.
    EXPECT_NE(std::string(e.what()).find("/day"), std::string::npos) << e.what();
  }
}

// --- salvage reader ---------------------------------------------------------

namespace {

const char* kTinyRaw =
    "$tacc_stats 2.0\n"
    "$hostname t1\n"
    "!cpu user;E idle;E\n"
    "1000 42 begin\n"
    "cpu 0 100 200\n"
    "1600 42 periodic\n"
    "cpu 0 150 260\n";

}  // namespace

TEST(SalvageReader, CleanContentMatchesStrict) {
  const auto strict = ts::to_samples(ts::parse_raw(kTinyRaw, "t1/day0"));
  const auto sr = ts::parse_raw_salvage(kTinyRaw, "t1/day0");
  EXPECT_TRUE(sr.quarantined.empty());
  EXPECT_FALSE(sr.missing_magic);
  const auto salvaged = ts::to_samples(sr.file);
  ASSERT_EQ(salvaged.size(), strict.size());
  EXPECT_TRUE(salvaged[0] == strict[0]);
  EXPECT_TRUE(salvaged[1] == strict[1]);
  EXPECT_EQ(sr.file.hostname, "t1");
}

TEST(SalvageReader, QuarantinesEveryDamageKindAndKeepsTheRest) {
  const std::string content =
      "$tacc_stats 2.0\n"
      "$\n"                       // bad metadata
      "$hostname t1\n"
      "!cpu user;E idle;E\n"
      "!\n"                       // bad schema
      "1000 42 begin\n"
      "cpu 0 100 200\n"
      "gpu 0 1 2\n"               // undeclared type
      "cpu\n"                     // short row
      "cpu 0 100\n"               // field count mismatch
      "cpu 0 100 abc\n"           // bad value
      "cpu 0 -1 200\n"            // bad value: counters are unsigned
      "cpu 0 +5 200\n"            // bad value: no sign either way
      "cpu 0 -0 200\n"            // bad value, even for zero
      "1600 42 bogus\n"           // bad sample header (unknown mark)
      "cpu 0 140 240\n"           // orphaned by the damaged header
      "2200 42 periodic\n"
      "cpu 0 150 260\n";
  const auto sr = ts::parse_raw_salvage(content, "t1/day0");
  // Both well-formed samples survive with their well-formed rows.
  const auto samples = ts::to_samples(sr.file);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].time, 1000);
  EXPECT_EQ(samples[1].time, 2200);
  ASSERT_EQ(samples[0].records.size(), 1u);
  ASSERT_EQ(samples[0].records[0].rows.size(), 1u);
  EXPECT_EQ(samples[0].records[0].rows[0].values[0], 100u);

  std::multiset<ts::QuarantineReason> reasons;
  for (const auto& q : sr.quarantined) {
    EXPECT_EQ(q.source, "t1/day0");
    EXPECT_GT(q.line, 0u);
    EXPECT_FALSE(q.detail.empty());
    reasons.insert(q.reason);
  }
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kBadMetadata), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kBadSchema), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kUndeclaredType), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kShortRow), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kFieldCountMismatch), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kBadValue), 4u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kBadSampleHeader), 1u);
  EXPECT_EQ(reasons.count(ts::QuarantineReason::kOrphanRow), 1u);
  EXPECT_EQ(sr.quarantined.size(), 11u);
  // The signed rows are lines 12-14; none of them reached the sample.
  for (const std::size_t line : {12u, 13u, 14u}) {
    EXPECT_TRUE(std::any_of(sr.quarantined.begin(), sr.quarantined.end(),
                            [&](const ts::Quarantine& q) {
                              return q.line == line &&
                                     q.reason == ts::QuarantineReason::kBadValue;
                            }))
        << "line " << line;
  }
}

TEST(SalvageReader, MissingMagicIsFlaggedNotFatal) {
  const auto sr = ts::parse_raw_salvage("1000 1 periodic\n", "t1/day0");
  EXPECT_TRUE(sr.missing_magic);
  EXPECT_THROW((void)ts::parse_raw("1000 1 periodic\n", "t1/day0"), supremm::ParseError);
}

TEST(SalvageReader, StrictErrorsCarrySourceAndLine) {
  try {
    (void)ts::parse_raw("$tacc_stats 2.0\ncpu 0 1 2\n", "c42-987/day7");
    FAIL() << "must throw";
  } catch (const supremm::ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("c42-987/day7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  // Without a source the message still carries the line number.
  try {
    (void)ts::parse_raw("$tacc_stats 2.0\ncpu 0 1 2\n");
    FAIL() << "must throw";
  } catch (const supremm::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  // A signed counter is a non-numeric value, not a wrapped u64.
  for (const char* value : {"-1", "+5", "-0"}) {
    try {
      (void)ts::parse_raw(std::string("$tacc_stats 2.0\n!cpu user;E idle;E\n1000 42 begin\n"
                                      "cpu 0 ") + value + " 200\n",
                          "c42-987/day7");
      FAIL() << value << " must throw";
    } catch (const supremm::ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                "parse error: c42-987/day7: row of type cpu has a non-numeric value (line 4)");
    }
  }
}

// --- config validation ------------------------------------------------------

TEST(IngestConfigValidation, NamesTheOffendingField) {
  const auto expect_invalid = [](auto mutate, const char* field) {
    etl::IngestConfig cfg;
    cfg.span = sc::kDay;
    mutate(cfg);
    try {
      const etl::IngestPipeline p(cfg);
      FAIL() << "config with bad " << field << " must throw";
    } catch (const supremm::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  expect_invalid([](etl::IngestConfig& c) { c.span = 0; }, "span");
  expect_invalid([](etl::IngestConfig& c) { c.span = -sc::kDay; }, "span");
  expect_invalid([](etl::IngestConfig& c) { c.bucket = 0; }, "bucket");
  expect_invalid([](etl::IngestConfig& c) { c.bucket = -60; }, "bucket");
  expect_invalid([](etl::IngestConfig& c) { c.hosts_per_chunk = 0; }, "hosts_per_chunk");
  expect_invalid([](etl::IngestConfig& c) { c.min_job_seconds = -1; }, "min_job_seconds");
  expect_invalid([](etl::IngestConfig& c) { c.max_pair_gap = -1; }, "max_pair_gap");
  // The defaults (plus a span) are valid.
  etl::IngestConfig ok;
  ok.span = sc::kDay;
  EXPECT_NO_THROW(etl::IngestPipeline{ok});
}

// --- data-quality surfacing -------------------------------------------------

TEST(DataQuality, WarehouseTableAndCsv) {
  const Damaged d = inject_profile("truncation");
  const auto r = run_mode(d.files, d.acct, d.lrt, etl::IngestMode::kSalvage);
  ASSERT_FALSE(r.quality.hosts.empty());

  const auto table = etl::quality_table(r.quality);
  EXPECT_EQ(table.rows(), r.quality.hosts.size());

  std::ostringstream csv;
  xd::csv_data_quality(r.quality, csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("host,"), std::string::npos);
  EXPECT_NE(text.find("clock_skew_s"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            r.quality.hosts.size() + 1);
}

TEST(DataQuality, SysadminReportIncludesDataQuality) {
  const auto names = xd::report_names(xd::Stakeholder::kSystemsAdministrator);
  EXPECT_NE(std::find(names.begin(), names.end(), "Data quality"), names.end());

  const auto& run = small_ranger_run();
  const auto& clean = clean_salvage();
  xd::DataContext ctx;
  ctx.cluster = run.spec.name;
  ctx.jobs = run.result.jobs;
  ctx.series = &run.result.series;

  std::ostringstream without;
  const std::size_t n_without =
      xd::write_reports(ctx, xd::Stakeholder::kSystemsAdministrator, without);
  ctx.quality = &clean.quality;
  std::ostringstream with;
  const std::size_t n_with =
      xd::write_reports(ctx, xd::Stakeholder::kSystemsAdministrator, with);
  EXPECT_EQ(n_with, n_without + 1);
  EXPECT_NE(with.str().find("Data quality"), std::string::npos);

  const auto rendered = xd::render_data_quality(clean.quality, 5);
  EXPECT_GT(rendered.row_count(), 0u);
  EXPECT_NE(rendered.to_string().find("coverage"), std::string::npos);
}

// --- salvage edge cases (DESIGN.md §12 satellite coverage) ------------------

namespace {

// 7-field cpu schema so extract_pair's user/nice/system/idle/iowait/irq/
// softirq reads line up; counters monotone so pairs extract cleanly.
constexpr const char* kEdgeSchema = "!cpu user;E nice;E system;E idle;E iowait;E irq;E softirq;E\n";

std::string cpu_row(std::uint64_t base) {
  std::ostringstream os;
  os << "cpu 0";
  for (int f = 0; f < 7; ++f) os << " " << base + static_cast<std::uint64_t>(f) * 10;
  os << "\n";
  return os.str();
}

supremm::accounting::AccountingRecord edge_acct(supremm::facility::JobId id,
                                                const std::string& host,
                                                sc::TimePoint start, sc::TimePoint end) {
  supremm::accounting::AccountingRecord a;
  a.hostname = host;
  a.owner = sc::strprintf("user%llu", static_cast<unsigned long long>(id));
  a.jobname = sc::strprintf("job%llu", static_cast<unsigned long long>(id));
  a.job_id = id;
  a.account = "TG-edge";
  a.submit = start - 60;
  a.start = start;
  a.end = end;
  a.slots = 1;
  a.nodes = 1;
  return a;
}

etl::IngestResult edge_ingest(const std::vector<ts::RawFile>& files,
                              const std::vector<supremm::accounting::AccountingRecord>& acct,
                              sc::Duration span) {
  etl::IngestConfig cfg;
  cfg.start = 0;
  cfg.span = span;
  cfg.cluster = "edge";
  cfg.threads = 1;
  cfg.mode = etl::IngestMode::kSalvage;
  return etl::IngestPipeline(cfg).run(files, acct, {}, {}, {});
}

}  // namespace

// A job whose every sample on every host is quarantined must vanish from the
// job table (nothing to attribute) while the per-host quality rows account
// for each damaged line — loss is visible, never silently invented.
TEST(SalvageEdges, AllHostsQuarantinedJobIsAccountedNotInvented) {
  const std::string h1 = std::string("$tacc_stats 2.0\n$hostname h1\n") + kEdgeSchema +
                         "1000 42 bogus\n" +  // job 42's begin: bad mark
                         cpu_row(100) +       // orphaned by the damaged header
                         "2000 43 begin\n" + cpu_row(200) +
                         "2600 43 periodic\n" + cpu_row(900) +
                         "3200 43 end\n" + cpu_row(1700);
  const std::string h2 = std::string("$tacc_stats 2.0\n$hostname h2\n") + kEdgeSchema +
                         "1000 42 bogus\n" + cpu_row(100) +  // job 42 again
                         "1600 42 bogus\n" + cpu_row(800);
  const std::vector<ts::RawFile> files = {{"h1", 0, h1}, {"h2", 0, h2}};
  const auto r = edge_ingest(
      files, {edge_acct(42, "h2", 1000, 1600), edge_acct(43, "h1", 2000, 3200)}, sc::kDay);

  // Only job 43 survives; job 42 has zero usable samples anywhere.
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].id, 43u);
  EXPECT_EQ(r.stats.jobs_seen, 1u);

  ASSERT_EQ(r.quality.hosts.size(), 2u);  // sorted by host name
  const etl::HostQuality& q1 = r.quality.hosts[0];
  const etl::HostQuality& q2 = r.quality.hosts[1];
  ASSERT_EQ(q1.host, "h1");
  ASSERT_EQ(q2.host, "h2");
  EXPECT_EQ(q1.quarantined, 2u);  // bad header + orphaned row
  EXPECT_GT(q1.pairs, 0u);
  EXPECT_EQ(q2.quarantined, 4u);  // both headers + both rows
  EXPECT_EQ(q2.samples, 0u);
  EXPECT_EQ(q2.pairs, 0u);
  EXPECT_EQ(q2.coverage(r.quality.span), 0.0);
  EXPECT_EQ(r.quality.total_quarantined(), 6u);
  EXPECT_EQ(r.stats.quarantined, 6u);
  EXPECT_EQ(etl::quality_table(r.quality).rows(), 2u);
}

// Clock-skew repair when the skew pushes samples across the midnight file
// boundary: the skewed collector writes a sample into the next day's raw
// file, and after the median-offset correction the ingest must be
// bit-identical to the unskewed control — including bucket attribution on
// both sides of the boundary.
TEST(SalvageEdges, ClockSkewRepairAtDayBoundary) {
  constexpr sc::TimePoint kStart = 86100;  // 5 min before midnight
  constexpr std::int64_t kSkew = 30;
  const std::string head = std::string("$tacc_stats 2.0\n$hostname n1\n") + kEdgeSchema;
  const auto stamp = [&](sc::TimePoint t, const char* mark, std::uint64_t base) {
    return std::to_string(t) + " 7 " + mark + "\n" + cpu_row(base);
  };

  // Control: day0 holds the two pre-midnight samples, day1 the rest.
  const std::vector<ts::RawFile> control = {
      {"n1", 0, head + stamp(86100, "begin", 100) + stamp(86390, "periodic", 700)},
      {"n1", 1, head + stamp(86700, "periodic", 1500) + stamp(87300, "end", 2400)},
  };
  // Skewed: every stamp reads +30s, so the 86390 sample lands at 86420 — past
  // midnight on the collector's clock — and is written into the day-1 file.
  const std::vector<ts::RawFile> skewed = {
      {"n1", 0, head + stamp(86100 + kSkew, "begin", 100)},
      {"n1", 1, head + stamp(86390 + kSkew, "periodic", 700) +
                    stamp(86700 + kSkew, "periodic", 1500) +
                    stamp(87300 + kSkew, "end", 2400)},
  };
  const std::vector<supremm::accounting::AccountingRecord> acct = {
      edge_acct(7, "n1", kStart, 87300)};

  const auto ref = edge_ingest(control, acct, 2 * sc::kDay);
  const auto fixed = edge_ingest(skewed, acct, 2 * sc::kDay);

  EXPECT_EQ(ref.stats.hosts_skewed, 0u);
  ASSERT_EQ(fixed.stats.hosts_skewed, 1u);
  ASSERT_EQ(fixed.quality.hosts.size(), 1u);
  EXPECT_EQ(fixed.quality.hosts[0].clock_skew_s, kSkew);
  ASSERT_EQ(ref.jobs.size(), 1u);
  expect_same_jobs(fixed.jobs, ref.jobs);
  expect_same_series(fixed.series, ref.series);
}

// Archive partitions that fail verification must surface as
// DataQualityReport::corrupt_partitions all the way into the rendered
// operator report — the storage-layer extension of the salvage contract.
TEST(SalvageEdges, CorruptPartitionsPropagateIntoQualityReport) {
  namespace stdfs = std::filesystem;
  const stdfs::path dir =
      stdfs::temp_directory_path() / "supremm_faultsim_corrupt_archive";
  supremm::testing::build_archive(dir.string(), supremm::testing::tiny_ranger_run());

  // Damage one series partition (the other day's partition keeps the table
  // loadable, exercising the partial-quarantine path).
  std::string victim;
  const supremm::archive::Reader reader(dir.string(), 1);
  for (const auto& p : reader.manifest().partitions) {
    if (p.table == "series") {
      victim = p.filename;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(dir / victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.get(c);
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0x40));
  }

  const supremm::archive::LoadResult load = supremm::archive::Archive(dir.string(), 1).load();
  ASSERT_EQ(load.quarantined.size(), 1u);
  EXPECT_EQ(load.quarantined[0].file, victim);
  EXPECT_EQ(load.quarantined[0].table, "series");
  EXPECT_FALSE(load.quarantined[0].reason.empty());

  // Propagated verbatim into the report...
  const etl::DataQualityReport& q = load.result.quality;
  ASSERT_EQ(q.corrupt_partitions.size(), 1u);
  EXPECT_EQ(q.corrupt_partitions[0].file, victim);
  EXPECT_EQ(q.corrupt_partitions[0].table, "series");

  // ...and rendered for the Systems Administrator stakeholder.
  const std::string rendered = xd::render_data_quality(q, 3).to_string();
  EXPECT_NE(rendered.find("1 corrupt archive partitions"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("[archive] " + victim), std::string::npos) << rendered;
  stdfs::remove_all(dir);
}
