// Property-based tests: randomized round-trips over every serialization
// format, scheduler invariants under load sweeps, engine conservation laws,
// and workload-generator scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "common/strings.h"
#include "facility/noise.h"
#include "supremm/supremm.h"

namespace fa = supremm::facility;
namespace ts = supremm::taccstats;
namespace ac = supremm::accounting;
namespace la = supremm::lariat;
namespace lg = supremm::loglib;
namespace sc = supremm::common;

// --- serialization round-trip fuzz -------------------------------------------

class AccountingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AccountingFuzz, RandomRecordRoundTrips) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<std::int64_t> t(0, 1 << 30);
  std::uniform_int_distribution<int> small(0, 200);
  for (int i = 0; i < 200; ++i) {
    ac::AccountingRecord r;
    r.queue = i % 2 == 0 ? "normal" : "development";
    r.hostname = sc::strprintf("c%04d", small(gen));
    r.owner = sc::strprintf("user%04d", small(gen));
    r.jobname = sc::strprintf("job%d", small(gen));
    r.job_id = t(gen);
    r.account = sc::strprintf("TG-ABC%03d", small(gen));
    r.priority = small(gen);
    r.submit = t(gen);
    r.start = r.submit + small(gen);
    r.end = r.start + small(gen) + 1;
    r.failed = small(gen) % 3 == 0 ? 100 : 0;
    r.exit_status = small(gen) % 2;
    r.slots = static_cast<std::size_t>(small(gen)) + 1;
    r.nodes = static_cast<std::size_t>(small(gen)) + 1;
    const auto back = ac::parse(ac::serialize(r));
    EXPECT_EQ(back.job_id, r.job_id);
    EXPECT_EQ(back.owner, r.owner);
    EXPECT_EQ(back.submit, r.submit);
    EXPECT_EQ(back.start, r.start);
    EXPECT_EQ(back.end, r.end);
    EXPECT_EQ(back.failed, r.failed);
    EXPECT_EQ(back.exit_status, r.exit_status);
    EXPECT_EQ(back.slots, r.slots);
    EXPECT_EQ(back.nodes, r.nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingFuzz, ::testing::Values(1, 2, 3, 4));

class LariatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LariatFuzz, RandomRecordRoundTrips) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<int> small(0, 50);
  for (int i = 0; i < 200; ++i) {
    la::LariatRecord r;
    r.job_id = small(gen) + 1;
    r.user = sc::strprintf("user%02d", small(gen));
    r.exe = i % 2 == 0 ? "namd2" : "pw.x";
    r.nodes = static_cast<std::size_t>(small(gen)) + 1;
    r.cores = r.nodes * 16;
    const int nlibs = small(gen) % 5;
    for (int k = 0; k < nlibs; ++k) r.libs.push_back(sc::strprintf("lib%d.so", k));
    r.workdir = "/scratch/x/run";
    r.start = small(gen) * 1000;
    const auto back = la::parse(la::serialize(r));
    EXPECT_EQ(back.job_id, r.job_id);
    EXPECT_EQ(back.exe, r.exe);
    EXPECT_EQ(back.libs, r.libs);
    EXPECT_EQ(back.nodes, r.nodes);
    EXPECT_EQ(back.start, r.start);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LariatFuzz, ::testing::Values(10, 11, 12));

class RawFormatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RawFormatFuzz, RandomSamplesRoundTrip) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<std::uint64_t> val(0, 1ULL << 62);
  std::uniform_int_distribution<int> small(1, 6);

  const ts::SchemaRegistry reg(supremm::procsim::Arch::kAmd10h);
  ts::RawWriter writer("fuzz-host", reg);
  std::string content = writer.header();

  std::vector<ts::Sample> originals;
  for (int s = 0; s < 30; ++s) {
    ts::Sample sample;
    sample.time = 1000 + s * 600;
    sample.job_id = s % 3 == 0 ? 0 : s;
    sample.mark = static_cast<ts::SampleMark>(s % 4);
    // Random subset of types with random device rows.
    for (const auto& schema : reg.all()) {
      if (small(gen) <= 2) continue;
      ts::TypeRecord rec;
      rec.type = schema.type;
      const int rows = small(gen);
      for (int r = 0; r < rows; ++r) {
        ts::DeviceRow row;
        row.device = sc::strprintf("d%d", r);
        for (std::size_t f = 0; f < schema.fields.size(); ++f) row.values.push_back(val(gen));
        rec.rows.push_back(std::move(row));
      }
      sample.records.push_back(std::move(rec));
    }
    writer.append_sample(sample, content);
    originals.push_back(std::move(sample));
  }

  const auto parsed = ts::to_samples(ts::parse_raw(content));
  ASSERT_EQ(parsed.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const auto& a = originals[i];
    const auto& b = parsed[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.mark, b.mark);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t t = 0; t < a.records.size(); ++t) {
      EXPECT_EQ(a.records[t].type, b.records[t].type);
      ASSERT_EQ(a.records[t].rows.size(), b.records[t].rows.size());
      for (std::size_t r = 0; r < a.records[t].rows.size(); ++r) {
        EXPECT_EQ(a.records[t].rows[r].device, b.records[t].rows[r].device);
        EXPECT_EQ(a.records[t].rows[r].values, b.records[t].rows[r].values);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RawFormatFuzz, ::testing::Values(21, 22, 23, 24));

class LogFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LogFuzz, RationalizedRoundTrips) {
  std::mt19937 gen(GetParam());
  std::uniform_int_distribution<int> small(0, 100);
  const char* codes[] = {"OOM_KILL", "SOFT_LOCKUP", "LUSTRE_ERR", "MCE", "UNKNOWN"};
  const char* facs[] = {"kern", "lustre", "mce", "sched", "other"};
  for (int i = 0; i < 300; ++i) {
    lg::RationalizedRecord r;
    r.time = small(gen) * 977;
    r.host = sc::strprintf("h%03d", small(gen));
    r.job_id = small(gen);
    r.facility = facs[small(gen) % 5];
    r.severity = static_cast<lg::Severity>(small(gen) % 4);
    r.code = codes[small(gen) % 5];
    r.message = sc::strprintf("some message %d with spaces and: punctuation", i);
    const auto back = lg::parse(lg::serialize(r));
    EXPECT_EQ(back.time, r.time);
    EXPECT_EQ(back.host, r.host);
    EXPECT_EQ(back.job_id, r.job_id);
    EXPECT_EQ(back.facility, r.facility);
    EXPECT_EQ(back.severity, r.severity);
    EXPECT_EQ(back.code, r.code);
    EXPECT_EQ(back.message, r.message);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogFuzz, ::testing::Values(31, 32, 33));

// --- scheduler invariants under load sweep -----------------------------------

class SchedulerLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(SchedulerLoadSweep, InvariantsHold) {
  const double load = GetParam();
  auto spec = fa::scaled(fa::ranger(), 0.01);
  const auto cat = fa::standard_catalogue();
  const auto pop = fa::UserPopulation::generate(spec, cat, 55);
  fa::WorkloadConfig cfg;
  cfg.span = 5 * sc::kDay;
  cfg.seed = 55;
  cfg.load_factor = load;
  auto reqs = fa::generate_workload(spec, cat, pop, cfg);
  const std::size_t n_requests = reqs.size();
  const auto execs = fa::Scheduler::run(spec, std::move(reqs), {});

  // Every request executes exactly once.
  ASSERT_EQ(execs.size(), n_requests);
  std::set<fa::JobId> ids;
  for (const auto& e : execs) {
    EXPECT_TRUE(ids.insert(e.req.id).second);
    EXPECT_GE(e.start, e.req.submit);
    EXPECT_GT(e.end, e.start);
    EXPECT_EQ(e.node_ids.size(), e.req.nodes);
    // Node ids valid and unique within the job.
    std::set<std::uint32_t> nodes(e.node_ids.begin(), e.node_ids.end());
    EXPECT_EQ(nodes.size(), e.node_ids.size());
    for (const auto nid : e.node_ids) EXPECT_LT(nid, spec.node_count);
  }
  // Spot-check occupancy at 50 instants.
  for (int i = 0; i < 50; ++i) {
    const auto t = static_cast<sc::TimePoint>(i) * (5 * sc::kDay) / 50;
    EXPECT_LE(fa::busy_nodes_at(execs, t), spec.node_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, SchedulerLoadSweep,
                         ::testing::Values(0.3, 0.7, 1.0, 1.4));

// --- workload scaling ----------------------------------------------------

class WorkloadLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(WorkloadLoadSweep, OfferedLoadScalesWithFactor) {
  const double factor = GetParam();
  auto spec = fa::scaled(fa::ranger(), 0.02);
  const auto cat = fa::standard_catalogue();
  const auto pop = fa::UserPopulation::generate(spec, cat, 66);
  fa::WorkloadConfig cfg;
  cfg.span = 20 * sc::kDay;
  cfg.seed = 66;
  cfg.load_factor = factor;
  const auto reqs = fa::generate_workload(spec, cat, pop, cfg);
  double node_seconds = 0;
  for (const auto& r : reqs) {
    node_seconds += static_cast<double>(r.nodes) * static_cast<double>(r.duration);
  }
  const double offered = node_seconds / (20.0 * sc::kDay) /
                         static_cast<double>(spec.node_count);
  EXPECT_NEAR(offered, spec.utilization_target * factor,
              0.30 * spec.utilization_target * factor);
}

INSTANTIATE_TEST_SUITE_P(Factors, WorkloadLoadSweep, ::testing::Values(0.5, 1.0, 1.5));

// --- engine conservation sweep ---------------------------------------------

class EngineConservation : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineConservation, CpuTimeSumsToElapsed) {
  // For any application signature, the per-core cpu counters must sum to
  // ~100 centiseconds per second of integration.
  auto spec = fa::scaled(fa::ranger(), 0.005);
  const auto cat = fa::standard_catalogue();
  fa::JobRequest r;
  r.id = 1;
  r.nodes = 1;
  r.duration = 6 * sc::kHour;
  r.submit = 0;
  sc::RngStream rng(9, 9);
  r.behavior = fa::realize(cat[fa::app_index(cat, GetParam())], "ranger", 32.0, rng);
  auto execs = fa::Scheduler::run(spec, {r}, {});
  fa::FacilityEngine engine(spec, std::move(execs), {}, 0, 7 * sc::kHour, 9);
  const std::size_t node = engine.executions()[0].node_ids[0];
  engine.advance_node(node, 7 * sc::kHour);
  const auto& nc = engine.counters(node);
  for (const auto& c : nc.cpu) {
    const double total =
        static_cast<double>(c.user + c.nice + c.system + c.idle + c.iowait + c.irq);
    EXPECT_NEAR(total, 7.0 * 3600.0 * 100.0, 7.0 * 3600.0 * 100.0 * 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, EngineConservation,
                         ::testing::Values("NAMD", "AMBER", "WRF", "DATAMINER",
                                           "UNDERSUB", "QCHEM"));

// --- noise statistics sweep --------------------------------------------------

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, ModulationIsMeanOne) {
  const double sigma = GetParam();
  double sum = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += fa::lognormal_mod(sigma, 3, 14, fa::MetricTag::kNet, i);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.03 + sigma * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseSweep, ::testing::Values(0.05, 0.2, 0.5, 0.8, 1.2));
