// Tests for the extension modules: LZSS compression (the §4.1 compressed-
// archive claim), the SAR-baseline collection mode, per-job traces, and the
// XDMoD realm / custom-report facade.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "compress/lzss.h"
#include "sim_fixture.h"

namespace fa = supremm::facility;
namespace ts = supremm::taccstats;
namespace etl = supremm::etl;
namespace xd = supremm::xdmod;
namespace cz = supremm::compress;
namespace sc = supremm::common;
using supremm::testing::small_ranger_run;

// --- lzss -----------------------------------------------------------------

TEST(Lzss, EmptyRoundTrip) {
  const std::string out = cz::compress("");
  EXPECT_EQ(cz::decompress(out), "");
}

TEST(Lzss, ShortRoundTrip) {
  for (const char* s : {"a", "ab", "abc", "hello world", "aaaaaaaaaaaaaaaaaaaa"}) {
    EXPECT_EQ(cz::decompress(cz::compress(s)), s) << s;
  }
}

TEST(Lzss, RepetitiveTextCompressesWell) {
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += "cpu 0 123456 0 7890 999999 12 3 4\n";
  }
  const std::string comp = cz::compress(input);
  EXPECT_EQ(cz::decompress(comp), input);
  EXPECT_LT(comp.size(), input.size() / 5);  // highly repetitive
}

TEST(Lzss, RandomBytesRoundTrip) {
  std::mt19937 gen(7);
  std::uniform_int_distribution<int> d(0, 255);
  std::string input;
  for (int i = 0; i < 50000; ++i) input.push_back(static_cast<char>(d(gen)));
  const std::string comp = cz::compress(input);
  EXPECT_EQ(cz::decompress(comp), input);
  // Incompressible: bounded expansion.
  EXPECT_LT(comp.size(), input.size() + input.size() / 8 + 16);
}

TEST(Lzss, OverlappingMatches) {
  // Classic RLE-via-LZ case: run of one byte uses self-overlapping copies.
  const std::string input(10000, 'x');
  const std::string comp = cz::compress(input);
  EXPECT_EQ(cz::decompress(comp), input);
  // 16-byte-max matches at distance 1: ~2.25 bytes per 18 input bytes.
  EXPECT_LT(comp.size(), 1500u);
}

TEST(Lzss, RejectsCorruptStreams) {
  EXPECT_THROW((void)cz::decompress("garbage"), supremm::ParseError);
  EXPECT_THROW((void)cz::decompress(""), supremm::ParseError);
  std::string ok = cz::compress("hello hello hello hello");
  ok.resize(ok.size() / 2);  // truncate
  EXPECT_THROW((void)cz::decompress(ok), supremm::ParseError);
}

TEST(Lzss, RawArchiveCompressionRatioNearPaper) {
  // Paper §4.1: 60 GB raw -> 20 GB compressed per month, i.e. ratio ~ 1/3.
  const auto& run = small_ranger_run();
  std::string archive;
  for (std::size_t i = 0; i < std::min<std::size_t>(run.files.size(), 10); ++i) {
    archive += run.files[i].content;
  }
  ASSERT_GT(archive.size(), 100000u);
  const double ratio = cz::compression_ratio(archive);
  EXPECT_LT(ratio, 0.45);  // at least ~2.2x, comparable to gzip's ~3x
  EXPECT_GT(ratio, 0.02);
  // And it round-trips.
  EXPECT_EQ(cz::decompress(cz::compress(archive)), archive);
}

class LzssSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LzssSizeSweep, StructuredDataRoundTrip) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<int> v(0, 9);
  std::string input;
  for (int i = 0; i < GetParam() * 1000; ++i) {
    input += "field";
    input.push_back(static_cast<char>('0' + v(gen)));
    input.push_back(v(gen) < 5 ? ' ' : '\n');
  }
  EXPECT_EQ(cz::decompress(cz::compress(input)), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzssSizeSweep, ::testing::Values(1, 4, 16, 64));

// --- SAR mode ---------------------------------------------------------------

TEST(SarMode, NoJobTagsNoPerf) {
  auto spec = fa::scaled(fa::ranger(), 0.005);
  fa::JobRequest r;
  r.id = 1;
  r.nodes = 2;
  r.duration = 4 * sc::kHour;
  r.submit = 0;
  r.behavior.idle_frac = 0.1;
  r.behavior.mem_gb = 4.0;
  auto execs = fa::Scheduler::run(spec, {r}, {});
  fa::FacilityEngine engine(spec, std::move(execs), {}, 0, 6 * sc::kHour, 3);
  ts::AgentConfig cfg;
  cfg.sar_mode = true;
  ts::NodeAgent agent(engine, engine.executions()[0].node_ids[0], cfg);
  const auto out = agent.run();
  std::string all;
  for (const auto& f : out.files) all += f.content;
  const auto parsed = ts::to_samples(ts::parse_raw(all));
  ASSERT_FALSE(parsed.empty());
  for (const auto& s : parsed) {
    EXPECT_EQ(s.job_id, 0);                                // no job tag
    EXPECT_EQ(s.mark, ts::SampleMark::kPeriodic);          // no begin/end
    EXPECT_EQ(s.find("amd64_pmc"), nullptr);               // no PMC access
    EXPECT_NE(s.find("cpu"), nullptr);                     // system data intact
  }
}

TEST(SarMode, IngestYieldsNoJobsButKeepsSystemSeries) {
  // The §1.2 point: SAR-style data cannot support job/user/app analysis.
  auto spec = fa::scaled(fa::ranger(), 0.005);
  supremm::pipeline::PipelineConfig cfg;
  cfg.spec = spec;
  cfg.span = 2 * sc::kDay;
  cfg.seed = 8;
  cfg.agent.sar_mode = true;
  const auto run = supremm::pipeline::run_pipeline(cfg);
  EXPECT_TRUE(run.result.jobs.empty());  // nothing attributable to jobs
  // But the facility series still carries CPU/memory/io data...
  double up = 0;
  double flops = 0;
  for (std::size_t i = 0; i < run.result.series.buckets; ++i) {
    up += run.result.series.up_nodes[i];
    flops += run.result.series.flops_tf[i];
  }
  EXPECT_GT(up, 0.0);
  // ...except FLOPS, which need the per-job counter programming.
  EXPECT_DOUBLE_EQ(flops, 0.0);
}

// --- job traces -----------------------------------------------------------

TEST(JobTrace, MatchesSummary) {
  const auto& run = small_ranger_run();
  // Pick a job with a decent number of samples.
  const etl::JobSummary* job = nullptr;
  for (const auto& j : run.result.jobs) {
    if (j.samples > 20 && j.flops_valid && (job == nullptr || j.samples > job->samples)) {
      job = &j;
    }
  }
  ASSERT_NE(job, nullptr);
  const auto trace = etl::extract_job_trace(run.files, job->id);
  ASSERT_GE(trace.size(), 5u);

  // Time-weighted trace means should agree with the job summary.
  double idle_w = 0, mem_w = 0, w = 0;
  for (const auto& p : trace) {
    idle_w += p.cpu_idle * p.dt;
    mem_w += p.mem_gb_node * p.dt;
    w += p.dt;
  }
  EXPECT_NEAR(idle_w / w, job->cpu_idle, 0.02);
  EXPECT_NEAR(mem_w / w, job->mem_used_gb, job->mem_used_gb * 0.1 + 0.3);

  // Trace covers the job's runtime.
  EXPECT_GE(trace.front().t + 10 * sc::kMinute, job->start - 10 * sc::kMinute);
  EXPECT_LE(trace.back().t, job->end);
  // Sorted by time, plausible values.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(trace[i].t, trace[i - 1].t);
    }
    EXPECT_GE(trace[i].cpu_idle, 0.0);
    EXPECT_LE(trace[i].cpu_idle, 1.0);
    EXPECT_GE(trace[i].nodes, 1u);
    EXPECT_LE(trace[i].nodes, job->nodes);
  }
}

TEST(JobTrace, UnknownJobIsEmpty) {
  const auto& run = small_ranger_run();
  EXPECT_TRUE(etl::extract_job_trace(run.files, 99999999).empty());
  EXPECT_THROW((void)etl::extract_job_trace(run.files, 1, 0), supremm::InvalidArgument);
}

// --- realm ------------------------------------------------------------------

TEST(Realm, DimensionAndStatisticCatalogues) {
  EXPECT_TRUE(xd::JobsRealm::has_dimension("user"));
  EXPECT_TRUE(xd::JobsRealm::has_dimension("application"));
  EXPECT_TRUE(xd::JobsRealm::has_dimension("none"));
  EXPECT_FALSE(xd::JobsRealm::has_dimension("moon_phase"));
  EXPECT_TRUE(xd::JobsRealm::has_statistic("job_count"));
  EXPECT_TRUE(xd::JobsRealm::has_statistic("avg_cpu_idle"));
  EXPECT_TRUE(xd::JobsRealm::has_statistic("max_mem_used"));
  EXPECT_FALSE(xd::JobsRealm::has_statistic("avg_moon_phase"));
  EXPECT_GE(xd::JobsRealm::statistics().size(), 30u);
}

TEST(Realm, WholeFacilityRow) {
  const auto& run = small_ranger_run();
  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "none";
  spec.statistics = {"job_count", "total_node_hours", "avg_cpu_idle"};
  const auto t = realm.report(spec);
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.col("job_count").as_int64(0),
            static_cast<std::int64_t>(run.result.jobs.size()));
  const xd::ProfileAnalyzer an(run.result.jobs);
  EXPECT_NEAR(t.col("avg_cpu_idle").as_double(0), an.facility_means().at("cpu_idle"),
              1e-9);
}

TEST(Realm, GroupByScienceWithSortAndLimit) {
  const auto& run = small_ranger_run();
  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "science";
  spec.statistics = {"total_node_hours", "job_count"};
  spec.sort_by = "total_node_hours";
  spec.limit = 3;
  const auto t = realm.report(spec);
  EXPECT_LE(t.rows(), 3u);
  for (std::size_t r = 1; r < t.rows(); ++r) {
    EXPECT_GE(t.col("total_node_hours").as_double(r - 1),
              t.col("total_node_hours").as_double(r));
  }
}

TEST(Realm, FilteredReport) {
  const auto& run = small_ranger_run();
  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "user";
  spec.statistics = {"job_count"};
  spec.filter_dimension = "application";
  spec.filter_value = "NAMD";
  const auto t = realm.report(spec);
  std::int64_t total = 0;
  for (std::size_t r = 0; r < t.rows(); ++r) total += t.col("job_count").as_int64(r);
  std::int64_t direct = 0;
  for (const auto& j : run.result.jobs) direct += j.app == "NAMD" ? 1 : 0;
  EXPECT_EQ(total, direct);
}

TEST(Realm, WastedNodeHoursConsistent) {
  const auto& run = small_ranger_run();
  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "none";
  spec.statistics = {"total_node_hours", "wasted_node_hours"};
  const auto t = realm.report(spec);
  const double eff =
      1.0 - t.col("wasted_node_hours").as_double(0) / t.col("total_node_hours").as_double(0);
  EXPECT_NEAR(eff, xd::facility_efficiency(run.result.jobs), 1e-9);
}

TEST(Realm, RenderAndErrors) {
  const auto& run = small_ranger_run();
  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "application";
  spec.statistics = {"job_count", "avg_cpu_idle", "failure_rate"};
  const auto table = realm.render(spec);
  EXPECT_GT(table.row_count(), 3u);

  xd::JobsRealm::ReportSpec bad;
  bad.dimension = "moon_phase";
  bad.statistics = {"job_count"};
  EXPECT_THROW((void)realm.report(bad), supremm::NotFoundError);
  bad.dimension = "user";
  bad.statistics = {"avg_moon_phase"};
  EXPECT_THROW((void)realm.report(bad), supremm::NotFoundError);
  bad.statistics = {};
  EXPECT_THROW((void)realm.report(bad), supremm::InvalidArgument);
}

// --- NFS subsystem ------------------------------------------------------

TEST(Nfs, CollectedOnlyWhenMounted) {
  namespace ps = supremm::procsim;
  ps::NodeCounters with("a", ps::Arch::kIntelWestmere, 2, 6, 1 << 20);
  with.has_nfs = true;
  with.nfs.rpc_calls = 42;
  ps::NodeCounters without("b", ps::Arch::kAmd10h, 1, 4, 1 << 20);
  const auto ci = ts::standard_collectors(ps::Arch::kIntelWestmere);
  const auto ca = ts::standard_collectors(ps::Arch::kAmd10h);
  for (const auto& rec : ts::collect_all(ci, with)) {
    if (rec.type == "nfs") {
      ASSERT_EQ(rec.rows.size(), 1u);
      EXPECT_EQ(rec.rows[0].values[0], 42u);
    }
  }
  for (const auto& rec : ts::collect_all(ca, without)) {
    if (rec.type == "nfs") {
      EXPECT_TRUE(rec.rows.empty());
    }
  }
}

TEST(Nfs, Lonestar4NodesReportNfsTraffic) {
  const auto run = supremm::testing::make_sim_run(fa::lonestar4(), 0.005, 2, 77);
  bool saw_nfs_rows = false;
  for (const auto& f : run.files) {
    if (f.content.find("\nnfs - ") != std::string::npos) {
      saw_nfs_rows = true;
      break;
    }
  }
  EXPECT_TRUE(saw_nfs_rows);
}
