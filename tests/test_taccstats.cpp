// Unit tests for the TACC_Stats collector: schemas, collectors, the raw
// text format (writer/reader round trip), and the per-node agent.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "facility/engine.h"
#include "facility/hardware.h"
#include "facility/scheduler.h"
#include "taccstats/agent.h"
#include "taccstats/collectors.h"
#include "taccstats/reader.h"
#include "taccstats/schema.h"
#include "taccstats/writer.h"

namespace ts = supremm::taccstats;
namespace fa = supremm::facility;
namespace ps = supremm::procsim;
namespace sc = supremm::common;

// --- schema ------------------------------------------------------------

TEST(Schema, SerializeParseRoundTrip) {
  ts::Schema s;
  s.type = "cpu";
  s.fields = {{"user", ts::FieldKind::kEvent, "cs"}, {"load", ts::FieldKind::kGauge, ""}};
  const std::string line = s.serialize();
  EXPECT_EQ(line, "!cpu user;E,U=cs load;G");
  const ts::Schema back = ts::Schema::parse(line);
  EXPECT_EQ(back.type, "cpu");
  ASSERT_EQ(back.fields.size(), 2u);
  EXPECT_EQ(back.fields[0].name, "user");
  EXPECT_EQ(back.fields[0].kind, ts::FieldKind::kEvent);
  EXPECT_EQ(back.fields[0].unit, "cs");
  EXPECT_EQ(back.fields[1].kind, ts::FieldKind::kGauge);
}

TEST(Schema, ParseRejectsMalformed) {
  EXPECT_THROW((void)ts::Schema::parse("cpu user;E"), supremm::ParseError);
  EXPECT_THROW((void)ts::Schema::parse("!cpu user"), supremm::ParseError);
  EXPECT_THROW((void)ts::Schema::parse("!cpu user;X"), supremm::ParseError);
  EXPECT_THROW((void)ts::Schema::parse("!"), supremm::ParseError);
}

TEST(Schema, FieldIndex) {
  const auto s = ts::Schema::parse("!mem MemTotal;G,U=KB MemUsed;G,U=KB");
  EXPECT_EQ(s.field_index("MemUsed"), 1u);
  EXPECT_THROW((void)s.field_index("Nope"), supremm::NotFoundError);
}

TEST(SchemaRegistry, CoversPaperSubsystems) {
  const ts::SchemaRegistry reg(ps::Arch::kAmd10h);
  // §2's inventory of what TACC_Stats collects.
  for (const char* type : {"cpu", "amd64_pmc", "mem", "vm", "net", "block", "ib", "llite",
                           "lnet", "numa", "irq", "ps", "sysv_shm", "tmpfs", "vfs"}) {
    EXPECT_TRUE(reg.has(type)) << type;
  }
  EXPECT_FALSE(reg.has("intel_wtm"));
  EXPECT_THROW((void)reg.get("nope"), supremm::NotFoundError);
}

TEST(SchemaRegistry, PerfTypeNamePerArch) {
  EXPECT_EQ(ts::SchemaRegistry::perf_type_name(ps::Arch::kAmd10h), "amd64_pmc");
  EXPECT_EQ(ts::SchemaRegistry::perf_type_name(ps::Arch::kIntelWestmere), "intel_wtm");
  EXPECT_TRUE(ts::SchemaRegistry(ps::Arch::kIntelWestmere).has("intel_wtm"));
}

TEST(SchemaRegistry, CpuFieldsAreEvents) {
  const ts::SchemaRegistry reg(ps::Arch::kAmd10h);
  for (const auto& f : reg.get("cpu").fields) {
    EXPECT_EQ(f.kind, ts::FieldKind::kEvent);
    EXPECT_EQ(f.unit, "cs");
  }
  for (const auto& f : reg.get("mem").fields) {
    EXPECT_EQ(f.kind, ts::FieldKind::kGauge);
  }
}

// --- collectors ----------------------------------------------------------

class CollectorsFixture : public ::testing::Test {
 protected:
  CollectorsFixture() : nc_("n0", ps::Arch::kAmd10h, 4, 4, 32ULL << 20) {
    nc_.net_devs.push_back({.name = "eth0"});
    nc_.block_devs.push_back({.name = "sda"});
    nc_.lustre_mounts.push_back({.name = "scratch"});
    nc_.lustre_mounts.push_back({.name = "work"});
    nc_.tmpfs_mounts.push_back({.name = "/dev/shm"});
    collectors_ = ts::standard_collectors(ps::Arch::kAmd10h);
  }
  ps::NodeCounters nc_;
  std::vector<std::unique_ptr<ts::Collector>> collectors_;
};

TEST_F(CollectorsFixture, AllTypesMatchSchemas) {
  const ts::SchemaRegistry reg(ps::Arch::kAmd10h);
  const auto records = ts::collect_all(collectors_, nc_);
  EXPECT_EQ(records.size(), reg.all().size());
  for (const auto& rec : records) {
    const auto& schema = reg.get(rec.type);
    for (const auto& row : rec.rows) {
      EXPECT_EQ(row.values.size(), schema.fields.size()) << rec.type;
    }
  }
}

TEST_F(CollectorsFixture, RowCountsPerDevice) {
  const auto records = ts::collect_all(collectors_, nc_);
  for (const auto& r : records) {
    if (r.type == "cpu" || r.type == "amd64_pmc") {
      EXPECT_EQ(r.rows.size(), 16u);
    }
    if (r.type == "mem" || r.type == "numa") {
      EXPECT_EQ(r.rows.size(), 4u);
    }
    if (r.type == "llite") {
      EXPECT_EQ(r.rows.size(), 2u);
    }
  }
}

TEST_F(CollectorsFixture, ValuesReflectCounterState) {
  nc_.cpu[3].user = 1234;
  nc_.lustre("scratch").write_bytes = 999;
  nc_.perf[0].program(0, ps::PerfEvent::kFlops);
  nc_.perf[0].deliver(ps::PerfEvent::kFlops, 42);
  const auto records = ts::collect_all(collectors_, nc_);
  for (const auto& r : records) {
    if (r.type == "cpu") {
      EXPECT_EQ(r.rows[3].values[0], 1234u);
    }
    if (r.type == "llite") {
      EXPECT_EQ(r.rows[0].device, "scratch");
      EXPECT_EQ(r.rows[0].values[1], 999u);
    }
    if (r.type == "amd64_pmc") {
      // CTL0 = flops event id, CTR0 = 42.
      EXPECT_EQ(r.rows[0].values[0], static_cast<std::uint64_t>(ps::PerfEvent::kFlops));
      EXPECT_EQ(r.rows[0].values[4], 42u);
    }
  }
}

// --- writer / reader round trip ------------------------------------------

TEST(RawFormat, RoundTrip) {
  const ts::SchemaRegistry reg(ps::Arch::kIntelWestmere);
  ts::RawWriter writer("ls4-c0001", reg);
  ps::NodeCounters nc("ls4-c0001", ps::Arch::kIntelWestmere, 2, 6, 24ULL << 20);
  nc.net_devs.push_back({.name = "eth0"});
  nc.block_devs.push_back({.name = "sda"});
  nc.lustre_mounts.push_back({.name = "scratch"});
  nc.tmpfs_mounts.push_back({.name = "/tmp"});
  nc.cpu[0].user = 77;
  nc.ib.tx_bytes = 1234567;

  const auto collectors = ts::standard_collectors(ps::Arch::kIntelWestmere);
  ts::Sample s;
  s.time = 3600;
  s.job_id = 17;
  s.mark = ts::SampleMark::kJobBegin;
  s.records = ts::collect_all(collectors, nc);

  std::string content = writer.header();
  writer.append_sample(s, content);
  nc.cpu[0].user = 177;
  ts::Sample s2 = s;
  s2.time = 4200;
  s2.mark = ts::SampleMark::kPeriodic;
  s2.records = ts::collect_all(collectors, nc);
  writer.append_sample(s2, content);

  const ts::ParsedFile parsed = ts::parse_raw(content);
  EXPECT_EQ(parsed.hostname, "ls4-c0001");
  EXPECT_EQ(parsed.version, "2.0");
  const auto samples = ts::to_samples(parsed);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].time, 3600);
  EXPECT_EQ(samples[0].job_id, 17);
  EXPECT_EQ(samples[0].mark, ts::SampleMark::kJobBegin);
  EXPECT_EQ(samples[1].mark, ts::SampleMark::kPeriodic);

  const auto* cpu0 = samples[0].find("cpu");
  ASSERT_NE(cpu0, nullptr);
  EXPECT_EQ(cpu0->rows[0].values[0], 77u);
  const auto* cpu1 = samples[1].find("cpu");
  ASSERT_NE(cpu1, nullptr);
  EXPECT_EQ(cpu1->rows[0].values[0], 177u);
  const auto* ib = samples[0].find("ib");
  ASSERT_NE(ib, nullptr);
  EXPECT_EQ(ib->rows[0].values[2], 1234567u);
  EXPECT_TRUE(parsed.registry().has("intel_wtm"));
}

TEST(RawFormat, MarkNamesRoundTrip) {
  for (const auto m : {ts::SampleMark::kPeriodic, ts::SampleMark::kJobBegin,
                       ts::SampleMark::kJobEnd, ts::SampleMark::kRotate}) {
    EXPECT_EQ(ts::parse_mark(ts::mark_name(m)), m);
  }
  EXPECT_THROW((void)ts::parse_mark("bogus"), supremm::ParseError);
}

TEST(RawFormat, ParserRejectsCorruption) {
  EXPECT_THROW((void)ts::parse_raw("no magic here\n"), supremm::ParseError);
  EXPECT_THROW((void)ts::parse_raw("!cpu user;E\n100 0 periodic\ncpu 0 5\n"),
               supremm::ParseError);
  EXPECT_THROW((void)ts::parse_raw("$tacc_stats 2.0\n100 0 periodic\nmystery 0 5\n"),
               supremm::ParseError);
  EXPECT_THROW(
      (void)ts::parse_raw("$tacc_stats 2.0\n!cpu user;E idle;E\n100 0 periodic\ncpu 0 5\n"),
      supremm::ParseError);
  EXPECT_THROW((void)ts::parse_raw("$tacc_stats 2.0\n!cpu user;E\ncpu 0 5\n"),
               supremm::ParseError);
  EXPECT_THROW((void)ts::parse_raw("$tacc_stats 2.0\n!cpu user;E\n100 0\n"),
               supremm::ParseError);
}

TEST(RawFormat, SampleSizeMatchesSerialized) {
  const ts::SchemaRegistry reg(ps::Arch::kAmd10h);
  ts::RawWriter writer("h", reg);
  ts::Sample s;
  s.time = 1;
  s.records = {{"cpu", {{"0", {1, 2, 3, 4, 5, 6, 7}}}}};
  std::string out;
  writer.append_sample(s, out);
  EXPECT_EQ(writer.sample_size(s), out.size());
}

// --- agent -----------------------------------------------------------------

class AgentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = fa::scaled(fa::ranger(), 0.005);  // ~20 nodes
    fa::JobRequest r;
    r.id = 1;
    r.nodes = 2;
    r.duration = 2 * sc::kHour;
    r.submit = 30 * sc::kMinute;
    r.behavior.idle_frac = 0.1;
    r.behavior.mem_gb = 4.0;
    r.behavior.flops_frac = 0.05;
    auto execs = fa::Scheduler::run(spec_, {r}, {});
    engine_ = std::make_unique<fa::FacilityEngine>(
        spec_, std::move(execs), std::vector<fa::MaintenanceWindow>{}, 0, sc::kDay, 3);
  }
  fa::ClusterSpec spec_;
  std::unique_ptr<fa::FacilityEngine> engine_;
};

TEST_F(AgentFixture, EmitsBeginPeriodicEnd) {
  const std::size_t node = engine_->executions()[0].node_ids[0];
  ts::NodeAgent agent(*engine_, node, ts::AgentConfig{});
  const auto out = agent.run();
  ASSERT_FALSE(out.files.empty());
  std::string all;
  for (const auto& f : out.files) all += f.content;
  const auto parsed = ts::to_samples(ts::parse_raw(all));

  std::size_t begins = 0, ends = 0, periodics_in_job = 0;
  for (const auto& s : parsed) {
    if (s.mark == ts::SampleMark::kJobBegin) {
      ++begins;
      EXPECT_EQ(s.job_id, 1);
      EXPECT_EQ(s.time, 30 * sc::kMinute);
    }
    if (s.mark == ts::SampleMark::kJobEnd) {
      ++ends;
      EXPECT_EQ(s.time, 30 * sc::kMinute + 2 * sc::kHour);
    }
    if (s.mark == ts::SampleMark::kPeriodic && s.job_id == 1) ++periodics_in_job;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  // 2 h at 10-minute cadence: 11 interior samples.
  EXPECT_EQ(periodics_in_job, 11u);
}

TEST_F(AgentFixture, ReprogramsCountersAtJobBegin) {
  const std::size_t node = engine_->executions()[0].node_ids[0];
  ts::NodeAgent agent(*engine_, node, ts::AgentConfig{});
  const auto out = agent.run();
  std::string all;
  for (const auto& f : out.files) all += f.content;
  const auto parsed = ts::to_samples(ts::parse_raw(all));
  for (const auto& s : parsed) {
    if (s.mark != ts::SampleMark::kJobBegin) continue;
    const auto* pmc = s.find("amd64_pmc");
    ASSERT_NE(pmc, nullptr);
    // CTL0 = FLOPS, CTR values cleared at begin.
    EXPECT_EQ(pmc->rows[0].values[0], static_cast<std::uint64_t>(ps::PerfEvent::kFlops));
    EXPECT_EQ(pmc->rows[0].values[4], 0u);
  }
}

TEST_F(AgentFixture, DailyRotation) {
  ts::NodeAgent agent(*engine_, 0, ts::AgentConfig{});
  const auto out = agent.run();
  // One simulated day starting at t=0: a single file.
  EXPECT_EQ(out.files.size(), 1u);
  EXPECT_EQ(out.files[0].day, 0);
  EXPECT_GT(out.bytes, 0u);
  EXPECT_GT(out.samples, 100u);  // ~144 periodic samples per day
}

TEST_F(AgentFixture, BytesPerNodeDayNearPaperFigure) {
  // Paper §4.1: ~0.5 MB per node per day on Ranger (16 cores).
  ts::NodeAgent agent(*engine_, 0, ts::AgentConfig{});
  const auto out = agent.run();
  const double mb = static_cast<double>(out.bytes) / 1e6;
  EXPECT_GT(mb, 0.15);
  EXPECT_LT(mb, 1.5);
}

TEST_F(AgentFixture, RunAllAgentsCoversCluster) {
  const auto outputs = ts::run_all_agents(*engine_, ts::AgentConfig{}, 4);
  EXPECT_EQ(outputs.size(), engine_->node_count());
  for (const auto& o : outputs) EXPECT_GT(o.samples, 0u);
}

TEST(Agent, UserCounterFlagDeterministic) {
  int hits = 0;
  for (fa::JobId id = 1; id <= 5000; ++id) {
    const bool a = ts::user_programs_counters(id, 0.02);
    EXPECT_EQ(a, ts::user_programs_counters(id, 0.02));
    hits += a ? 1 : 0;
  }
  EXPECT_NEAR(hits / 5000.0, 0.02, 0.01);
  EXPECT_FALSE(ts::user_programs_counters(123, 0.0));
}

TEST(Agent, UserProgrammedJobLosesFlopsSlot) {
  // Force the user-programming path on every job and verify the periodic
  // samples report CTL0 == USER_CUSTOM after the first interval.
  auto spec = fa::scaled(fa::ranger(), 0.005);
  fa::JobRequest r;
  r.id = 1;
  r.nodes = 1;
  r.duration = sc::kHour;
  r.submit = 0;
  r.behavior.idle_frac = 0.1;
  r.behavior.mem_gb = 2.0;
  auto execs = fa::Scheduler::run(spec, {r}, {});
  fa::FacilityEngine engine(spec, std::move(execs), {}, 0, 2 * sc::kHour, 3);
  ts::AgentConfig cfg;
  cfg.user_counter_prob = 1.0;
  ts::NodeAgent agent(engine, engine.executions()[0].node_ids[0], cfg);
  const auto out = agent.run();
  std::string all;
  for (const auto& f : out.files) all += f.content;
  const auto parsed = ts::to_samples(ts::parse_raw(all));
  bool saw_custom = false;
  for (const auto& s : parsed) {
    if (s.mark == ts::SampleMark::kPeriodic && s.job_id == 1) {
      const auto* pmc = s.find("amd64_pmc");
      ASSERT_NE(pmc, nullptr);
      if (pmc->rows[0].values[0] ==
          static_cast<std::uint64_t>(ps::PerfEvent::kUserCustom)) {
        saw_custom = true;
      }
    }
  }
  EXPECT_TRUE(saw_custom);
}

TEST(Agent, NoSamplesDuringMaintenance) {
  auto spec = fa::scaled(fa::ranger(), 0.005);
  const std::vector<fa::MaintenanceWindow> wins = {{6 * sc::kHour, 6 * sc::kHour, true}};
  fa::FacilityEngine engine(spec, {}, wins, 0, sc::kDay, 3);
  ts::NodeAgent agent(engine, 0, ts::AgentConfig{});
  const auto out = agent.run();
  std::string all;
  for (const auto& f : out.files) all += f.content;
  const auto parsed = ts::to_samples(ts::parse_raw(all));
  for (const auto& s : parsed) {
    EXPECT_FALSE(s.time > 6 * sc::kHour && s.time < 12 * sc::kHour)
        << "sample at " << s.time << " inside the outage";
  }
  // Rotation sample on recovery.
  bool saw_rotate_after = false;
  for (const auto& s : parsed) {
    if (s.mark == ts::SampleMark::kRotate && s.time == 12 * sc::kHour) {
      saw_rotate_after = true;
    }
  }
  EXPECT_TRUE(saw_rotate_after);
}
