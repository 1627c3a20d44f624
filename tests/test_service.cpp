// Query service tests (DESIGN.md §13): request-language round-trip and
// differential identity against the engine, watermark-keyed cache hits that
// are bit-identical to cold re-runs, archive-append invalidation, cooperative
// cancellation with no partial results, deadlines, admission control, the
// report path against the realm, and an 8-client concurrent suite (the TSan
// target for the serving tier).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "archive/tables.h"
#include "pipeline/pipeline.h"
#include "service/request.h"
#include "service/service.h"
#include "sim_fixture.h"
#include "testkit/genquery.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"
#include "warehouse/partial.h"
#include "warehouse/rollup.h"

namespace ar = supremm::archive;
namespace etl = supremm::etl;
namespace fa = supremm::facility;
namespace fs = std::filesystem;
namespace pl = supremm::pipeline;
namespace sc = supremm::common;
namespace sv = supremm::service;
namespace tk = supremm::testkit;
namespace wh = supremm::warehouse;
namespace xd = supremm::xdmod;
using supremm::testing::expect_tables_identical;
using supremm::testing::SimRun;
using supremm::testing::tiny_ranger_run;

namespace {

constexpr const char* kContext = "test-context";

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("supremm-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ar::AppendStats append_days(ar::Archive& a, const SimRun& run, int days) {
  etl::IngestConfig cfg;
  cfg.start = run.start;
  cfg.span = days * sc::kDay;
  cfg.cluster = run.spec.name;
  return a.append(cfg, run.files, run.acct, run.lariat_records, run.catalogue,
                  etl::project_science_map(*run.population), kContext,
                  run.start + days * sc::kDay);
}

/// Shared fuzz corpus for the request-language tests.
const wh::Table& fuzz_corpus() {
  static const wh::Table t =
      tk::make_corpus({.rows = 1000, .chunk_rows = 128, .seed = 11});
  return t;
}

/// A corpus big enough that one full-scan 4-key group-by keeps a worker busy
/// for many milliseconds — the "blocker" behind the cancellation, deadline
/// and admission tests.
const wh::Table& big_corpus() {
  static const wh::Table t =
      tk::make_corpus({.rows = 400000, .chunk_rows = 1024, .seed = 31});
  return t;
}

/// An augmented, time-partitioned jobs table (what publish_jobs serves), so
/// the cancellation tests also reach the time-partitioned aggregation path.
wh::Table augmented_jobs(std::size_t rows) {
  wh::Table t = ar::jobs_table(tk::make_rollup_jobs({.rows = rows, .seed = 41}));
  wh::rollup::augment_jobs_table(t);
  t.rebuild_zone_index(ar::kDefaultChunkRows);
  return t;
}

constexpr const char* kBlockerText =
    "query corpus where value between -1e300 and 1e300 "
    "group user,app,day,big agg sum(value),wmean(value,weight),count()";

sv::ServiceConfig small_cfg() {
  sv::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_limit = 32;
  cfg.cache_entries = 64;
  cfg.default_deadline_ms = 30'000;
  return cfg;
}

void publish_corpus(sv::Service& svc, const wh::Table& corpus) {
  std::map<std::string, wh::Table> tables;
  tables.emplace("corpus", corpus);
  svc.publish_tables(std::move(tables));
}

void expect_zero_stats(const wh::QueryStats& st) {
  EXPECT_EQ(st.chunks_total, 0u);
  EXPECT_EQ(st.chunks_pruned, 0u);
  EXPECT_EQ(st.rows_scanned, 0u);
  EXPECT_EQ(st.rows_matched, 0u);
}

}  // namespace

// --- Request language ------------------------------------------------------

TEST(ServiceRequest, CanonicalFormIsAFixedPoint) {
  const std::vector<std::string> cases = {
      "query jobs agg count()",
      "query jobs where user = \"u1\" and value >= 2.5 group app agg "
      "sum(node_hours) as nh,count()",
      "query corpus where big between -9007199254740993 and inf group "
      "user,app agg wmean(value,weight),max(value) threads 8",
      "report jobs dimension user stats job_count,total_node_hours sort "
      "total_node_hours limit 5",
      "report jobs dimension app stats failure_rate filter science = "
      "\"Physics\" threads 2",
  };
  for (const auto& text : cases) {
    const std::string canon = sv::canonical_text(text);
    EXPECT_EQ(sv::canonical_text(canon), canon) << text;
  }
  // Whitespace and sugar collapse onto one canonical spelling.
  EXPECT_EQ(sv::canonical_text("query  jobs\n  agg   count( )  threads 1"),
            "query jobs agg count()");
  // Escapes survive the round trip.
  const std::string esc = "query jobs where user = \"a\\\"b\\\\c\" agg count()";
  EXPECT_EQ(sv::canonical_text(esc), esc);
}

TEST(ServiceRequest, ParseErrorsCarryPosition) {
  const std::vector<std::string> bad = {
      "",
      "fetch jobs agg count()",
      "query jobs",
      "query jobs agg bogus(value)",
      "query jobs agg sum(value) threads 100",
      "query jobs agg count() trailing junk",
      "query jobs where user = unquoted agg count()",
      "report jobs stats job_count",
  };
  for (const auto& text : bad) {
    try {
      (void)sv::parse_request(text);
      FAIL() << "expected ParseError for: " << text;
    } catch (const sc::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("request:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServiceRequest, GeneratedRequestsRoundTripAndMatchEngine) {
  const wh::Table& corpus = fuzz_corpus();
  for (std::uint64_t i = 0; i < 60; ++i) {
    tk::QuerySpec spec;
    const std::string text = tk::make_request_text(11, i, "corpus", &spec);
    ASSERT_EQ(sv::canonical_text(text), text) << text;

    const sv::Request req = sv::parse_request(text);
    wh::Query q = sv::compile(req.query, corpus);
    const wh::Table got = q.run();
    const tk::QueryRun ref = tk::run_engine(corpus, spec);
    expect_tables_identical(got, ref.table);
    EXPECT_EQ(tk::stats_diff(q.stats(), ref.stats), std::nullopt) << text;
  }
}

// --- Config validation -----------------------------------------------------

TEST(ServiceConfig, RejectsBadFieldsWithSourcedErrors) {
  const auto expect_rejects = [](sv::ServiceConfig cfg, const char* field) {
    try {
      cfg.validate();
      FAIL() << "expected InvalidArgument for " << field;
    } catch (const sc::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  sv::ServiceConfig cfg;
  cfg.workers = 0;
  expect_rejects(cfg, "workers");
  cfg = {};
  cfg.queue_limit = -1;
  expect_rejects(cfg, "queue_limit");
  cfg = {};
  cfg.cache_entries = -1;
  expect_rejects(cfg, "cache_entries");
  cfg = {};
  cfg.default_deadline_ms = 0;
  expect_rejects(cfg, "default_deadline_ms");
  EXPECT_THROW({ sv::Service rejected(cfg); }, sc::InvalidArgument);
  // Valid default config passes (cache may be disabled outright).
  cfg = {};
  cfg.cache_entries = 0;
  cfg.validate();
}

TEST(ServiceConfig, PipelineConfigValidatesServiceAndOwnFields) {
  pl::PipelineConfig cfg;
  cfg.spec = fa::scaled(fa::ranger(), 0.008);
  cfg.span = 0;
  EXPECT_THROW(cfg.validate(), sc::InvalidArgument);
  EXPECT_THROW((void)pl::run_pipeline(cfg), sc::InvalidArgument);
  cfg.span = sc::kDay;
  cfg.load_factor = -1.0;
  EXPECT_THROW(cfg.validate(), sc::InvalidArgument);
  cfg.load_factor = 1.0;
  cfg.agent.interval = 0;
  EXPECT_THROW(cfg.validate(), sc::InvalidArgument);
  cfg.agent.interval = supremm::taccstats::AgentConfig{}.interval;
  cfg.service.default_deadline_ms = -5;
  EXPECT_THROW(cfg.validate(), sc::InvalidArgument);
  cfg.service.default_deadline_ms = 1000;
  cfg.validate();
}

// --- Result cache ----------------------------------------------------------

TEST(ServiceCache, HitIsBitIdenticalToColdRerun) {
  const wh::Table& corpus = fuzz_corpus();
  sv::Service hot(small_cfg());
  publish_corpus(hot, corpus);
  sv::ServiceConfig cold_cfg = small_cfg();
  cold_cfg.cache_entries = 0;  // every request recomputes
  sv::Service cold(cold_cfg);
  publish_corpus(cold, corpus);

  sv::Session hs = hot.session("hot");
  sv::Session cs = cold.session("cold");
  for (std::uint64_t i = 0; i < 30; ++i) {
    const std::string text = tk::make_request_text(21, i, "corpus");
    const sv::ResponsePtr miss = hs.run(text);
    ASSERT_EQ(miss->status, sv::Status::kOk) << miss->error;
    EXPECT_FALSE(miss->cache_hit);
    const sv::ResponsePtr hit = hs.run(text);
    ASSERT_EQ(hit->status, sv::Status::kOk) << hit->error;
    EXPECT_TRUE(hit->cache_hit);
    const sv::ResponsePtr fresh = cs.run(text);
    ASSERT_EQ(fresh->status, sv::Status::kOk) << fresh->error;
    EXPECT_FALSE(fresh->cache_hit);

    expect_tables_identical(*hit->table, *miss->table);
    expect_tables_identical(*hit->table, *fresh->table);
    EXPECT_EQ(tk::stats_diff(hit->stats, miss->stats), std::nullopt);
    EXPECT_EQ(tk::stats_diff(hit->stats, fresh->stats), std::nullopt);
    EXPECT_EQ(hit->epoch, miss->epoch);
  }
  const sv::ServiceMetrics m = hot.metrics();
  EXPECT_EQ(m.cache_hits, 30u);
  EXPECT_EQ(m.submitted, 60u);
  EXPECT_EQ(m.completed, 60u);
  EXPECT_EQ(cold.metrics().cache_hits, 0u);
}

TEST(ServiceCache, LruEvictsLeastRecentlyUsed) {
  sv::ServiceConfig cfg = small_cfg();
  cfg.cache_entries = 2;
  sv::Service svc(cfg);
  publish_corpus(svc, fuzz_corpus());
  sv::Session s = svc.session("lru");

  const std::string q1 = "query corpus agg sum(value)";
  const std::string q2 = "query corpus agg max(value)";
  const std::string q3 = "query corpus agg min(value)";
  EXPECT_FALSE(s.run(q1)->cache_hit);
  EXPECT_FALSE(s.run(q2)->cache_hit);
  EXPECT_FALSE(s.run(q3)->cache_hit);  // evicts q1
  EXPECT_FALSE(s.run(q1)->cache_hit);  // q1 gone; reinsert evicts q2
  EXPECT_TRUE(s.run(q3)->cache_hit);   // q3 survived both evictions
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.cache_entries, 2u);
  EXPECT_GE(m.cache_evictions, 2u);
}

// --- Archive binding -------------------------------------------------------

TEST(ServiceArchive, AppendInvalidatesCacheAndMatchesFreshService) {
  const SimRun& run = tiny_ranger_run();
  const std::string dir = scratch_dir("svc-append");
  ar::Archive a(dir, 1);
  append_days(a, run, 1);

  sv::Service svc(small_cfg());
  svc.bind_archive(a);
  EXPECT_EQ(svc.epoch(), 1u);
  sv::Session s = svc.session("client");

  const std::string text =
      "query jobs group app agg count() as jobs,sum(node_hours),mean(cpu_idle)";
  const sv::ResponsePtr day1 = s.run(text);
  ASSERT_EQ(day1->status, sv::Status::kOk) << day1->error;
  EXPECT_EQ(day1->epoch, 1u);
  EXPECT_EQ(day1->watermark, run.start + sc::kDay);
  ASSERT_TRUE(s.run(text)->cache_hit);

  // The append republishes through the on_append hook: epoch bumps, the
  // cached day-1 answer can no longer be served.
  append_days(a, run, 2);
  EXPECT_EQ(svc.epoch(), 2u);
  const sv::ResponsePtr day2 = s.run(text);
  ASSERT_EQ(day2->status, sv::Status::kOk) << day2->error;
  EXPECT_FALSE(day2->cache_hit);
  EXPECT_EQ(day2->epoch, 2u);
  EXPECT_EQ(day2->watermark, a.watermark());

  // Bit-identical to a service that never saw the intermediate state.
  sv::Service fresh(small_cfg());
  fresh.bind_archive(a);
  const sv::ResponsePtr ref = fresh.session("fresh").run(text);
  ASSERT_EQ(ref->status, sv::Status::kOk) << ref->error;
  expect_tables_identical(*day2->table, *ref->table);
  EXPECT_EQ(tk::stats_diff(day2->stats, ref->stats), std::nullopt);

  // The series and quality tables are served too.
  EXPECT_EQ(s.run("query series agg mean(cpu_idle_frac),max(flops_tf)")->status,
            sv::Status::kOk);
  EXPECT_EQ(s.run("query data_quality agg count()")->status, sv::Status::kOk);
}

// --- Cancellation ----------------------------------------------------------

TEST(ServiceCancel, PreCancelledQueryThrowsAndKeepsZeroStats) {
  const wh::Table& corpus = fuzz_corpus();
  const sv::Request req = sv::parse_request(
      "query corpus where value >= 0 group user agg sum(value)");
  wh::Query q = sv::compile(req.query, corpus);
  sc::CancelToken token;
  token.cancel();
  q.cancel_token(&token);
  EXPECT_THROW((void)q.run(), sc::Cancelled);
  expect_zero_stats(q.stats());
  // The token is sticky: re-running still refuses.
  EXPECT_THROW((void)q.run(), sc::Cancelled);
  // Detached from the token the same query completes and repopulates stats.
  q.cancel_token(nullptr);
  const wh::Table out = q.run();
  EXPECT_GT(q.stats().rows_scanned, 0u);
  const tk::QueryRun ref = tk::run_engine(corpus, [] {
    tk::QuerySpec spec;
    spec.has_where = true;
    spec.where.push_back({tk::PredOp::kGe, "value", "", 0.0, 0.0});
    spec.group_by = {"user"};
    wh::AggSpec sum;
    sum.column = "value";
    sum.kind = wh::AggKind::kSum;
    spec.aggs.push_back(sum);
    return spec;
  }());
  expect_tables_identical(out, ref.table);
}

TEST(ServiceCancel, ExpiredDeadlineTokenTripsAtSafePoint) {
  const wh::Table& corpus = fuzz_corpus();
  const sv::Request req = sv::parse_request("query corpus agg sum(value)");
  wh::Query q = sv::compile(req.query, corpus);
  sc::CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.deadline_expired());
  q.cancel_token(&token);
  EXPECT_THROW((void)q.run(), sc::Cancelled);
  expect_zero_stats(q.stats());

  // Time-partitioned table: without a predicate the scan has no chunk loop,
  // so the first safe point is the cell-run id pass.
  const wh::Table jobs = augmented_jobs(3000);
  const sv::Request jreq =
      sv::parse_request("query jobs group user agg sum(node_hours),count()");
  wh::Query jq = sv::compile(jreq.query, jobs);
  jq.cancel_token(&token);
  EXPECT_THROW((void)jq.run(), sc::Cancelled);
  expect_zero_stats(jq.stats());
  EXPECT_THROW((void)jq.run_partial("job_id"), sc::Cancelled);
  expect_zero_stats(jq.stats());
}

TEST(ServiceCancel, MidRunCancelIsCleanOrComplete) {
  const wh::Table& corpus = big_corpus();
  const sv::Request req = sv::parse_request(kBlockerText);
  const tk::QueryRun ref =
      tk::run_engine(corpus, [] {
        tk::QuerySpec spec;
        spec.has_where = true;
        spec.where.push_back({tk::PredOp::kBetween, "value", "", -1e300, 1e300});
        spec.group_by = {"user", "app", "day", "big"};
        wh::AggSpec sum;
        sum.column = "value";
        sum.kind = wh::AggKind::kSum;
        wh::AggSpec wmean;
        wmean.column = "value";
        wmean.kind = wh::AggKind::kWeightedMean;
        wmean.weight = "weight";
        wh::AggSpec count;
        count.kind = wh::AggKind::kCount;
        spec.aggs = {sum, wmean, count};
        return spec;
      }());

  wh::Query q = sv::compile(req.query, corpus);
  sc::CancelToken token;
  q.cancel_token(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.cancel();
  });
  try {
    const wh::Table out = q.run();
    // Cancel landed after the last safe point: the run must be complete and
    // correct, never truncated.
    expect_tables_identical(out, ref.table);
    EXPECT_EQ(tk::stats_diff(q.stats(), ref.stats), std::nullopt);
  } catch (const sc::Cancelled&) {
    expect_zero_stats(q.stats());
  }
  canceller.join();

  // The time-partitioned path, through run() and run_partial(): a cancel
  // landing in the id pass, a radix pass or the accumulation must leave
  // zero stats; one landing after the last safe point, a complete answer.
  const wh::Table jobs = augmented_jobs(200000);
  const sv::Request jreq = sv::parse_request(
      "query jobs where cpu_idle between -1e300 and 1e300 group user,app,day "
      "agg sum(node_hours),wmean(cpu_idle,cores),count()");
  const wh::Query jref_q = sv::compile(jreq.query, jobs);
  const wh::Table jref = jref_q.run();
  const wh::QueryStats jref_stats = jref_q.stats();
  for (const bool partial : {false, true}) {
    wh::Query jq = sv::compile(jreq.query, jobs);
    sc::CancelToken jtoken;
    jq.cancel_token(&jtoken);
    std::thread jcanceller([&jtoken] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      jtoken.cancel();
    });
    try {
      if (partial) {
        const wh::partial::Partial part = jq.run_partial("job_id");
        wh::QueryStats merged_stats;
        const wh::Table merged = wh::partial::merge_partials(
            {&part, 1}, jreq.query.aggs, jref.name(), &merged_stats);
        expect_tables_identical(merged, jref);
        EXPECT_EQ(tk::stats_diff(merged_stats, jref_stats), std::nullopt);
      } else {
        const wh::Table out = jq.run();
        expect_tables_identical(out, jref);
        EXPECT_EQ(tk::stats_diff(jq.stats(), jref_stats), std::nullopt);
      }
    } catch (const sc::Cancelled&) {
      expect_zero_stats(jq.stats());
    }
    jcanceller.join();
  }
}

TEST(ServiceCancel, CancelledTicketLeaksNoPartialResults) {
  sv::ServiceConfig cfg = small_cfg();
  cfg.workers = 1;
  cfg.cache_entries = 0;
  sv::Service svc(cfg);
  publish_corpus(svc, big_corpus());
  sv::Session s = svc.session("cancel");

  const std::string target_text = "query corpus agg sum(value),count()";
  sv::Ticket blocker = s.submit(kBlockerText);
  sv::Ticket target = s.submit(target_text);
  target.cancel();

  ASSERT_EQ(blocker.wait()->status, sv::Status::kOk);
  const sv::ResponsePtr r = target.wait();
  const sv::ResponsePtr ref = s.run(target_text);
  ASSERT_EQ(ref->status, sv::Status::kOk) << ref->error;
  if (r->status == sv::Status::kCancelled) {
    EXPECT_EQ(r->table, nullptr);
    expect_zero_stats(r->stats);
  } else {
    // The worker raced past the cancel: the response must then be complete.
    ASSERT_EQ(r->status, sv::Status::kOk) << r->error;
    expect_tables_identical(*r->table, *ref->table);
  }
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.completed + m.cancelled, 3u);
}

// --- Deadlines and admission -----------------------------------------------

TEST(ServiceDeadline, QueuedRequestTimesOutBehindBlocker) {
  sv::ServiceConfig cfg = small_cfg();
  cfg.workers = 1;
  cfg.cache_entries = 0;
  sv::Service svc(cfg);
  publish_corpus(svc, big_corpus());
  sv::Session s = svc.session("deadline");

  sv::Ticket blocker = s.submit(kBlockerText);
  sv::Ticket target = s.submit("query corpus agg sum(value)", /*deadline_ms=*/1);
  ASSERT_EQ(blocker.wait()->status, sv::Status::kOk);
  const sv::ResponsePtr r = target.wait();
  EXPECT_EQ(r->status, sv::Status::kTimedOut) << sv::to_string(r->status);
  EXPECT_EQ(r->table, nullptr);
  expect_zero_stats(r->stats);
  EXPECT_EQ(svc.metrics().timed_out, 1u);

  EXPECT_THROW((void)s.submit("query corpus agg count()", -1), sc::InvalidArgument);
}

TEST(ServiceAdmission, QueueFullRejectsDeterministically) {
  sv::ServiceConfig cfg = small_cfg();
  cfg.workers = 1;
  cfg.queue_limit = 2;
  cfg.cache_entries = 0;
  sv::Service svc(cfg);
  publish_corpus(svc, big_corpus());
  sv::Session s = svc.session("admission");

  // b1 occupies the worker for many milliseconds; b2 plus at most one target
  // fill the 2-slot queue while it runs, so of the 4 rapid-fire targets
  // either 3 (b1 already dequeued) or 4 (not yet) must be rejected.
  sv::Ticket b1 = s.submit(kBlockerText);
  sv::Ticket b2 = s.submit(kBlockerText);
  std::vector<sv::Ticket> targets;
  for (int i = 0; i < 4; ++i) {
    targets.push_back(s.submit("query corpus agg count()"));
  }
  std::size_t rejected = 0;
  for (auto& t : targets) {
    const sv::ResponsePtr r = t.wait();
    if (r->status == sv::Status::kRejected) {
      ++rejected;
      EXPECT_EQ(r->table, nullptr);
      EXPECT_NE(r->error.find("queue full"), std::string::npos);
    } else {
      EXPECT_EQ(r->status, sv::Status::kOk) << r->error;
    }
  }
  EXPECT_GE(rejected, 3u);
  EXPECT_LE(rejected, 4u);
  EXPECT_EQ(svc.metrics().rejected, rejected);
  EXPECT_EQ(b1.wait()->status, sv::Status::kOk);
  EXPECT_EQ(b2.wait()->status, sv::Status::kOk);
}

// --- Reports ---------------------------------------------------------------

TEST(ServiceReport, MatchesRealmDirectAndCaches) {
  const SimRun& run = tiny_ranger_run();
  sv::Service svc(small_cfg());
  svc.publish_jobs(run.result.jobs, run.start + run.span);
  sv::Session s = svc.session("report");

  const std::string text =
      "report jobs dimension user stats job_count,total_node_hours sort "
      "total_node_hours limit 5";
  const sv::ResponsePtr r = s.run(text);
  ASSERT_EQ(r->status, sv::Status::kOk) << r->error;

  const xd::JobsRealm realm(run.result.jobs);
  xd::JobsRealm::ReportSpec spec;
  spec.dimension = "user";
  spec.statistics = {"job_count", "total_node_hours"};
  spec.sort_by = "total_node_hours";
  spec.limit = 5;
  expect_tables_identical(*r->table, realm.report(spec));

  const sv::ResponsePtr hit = s.run(text);
  ASSERT_EQ(hit->status, sv::Status::kOk);
  EXPECT_TRUE(hit->cache_hit);
  expect_tables_identical(*hit->table, *r->table);

  // Realm errors surface as kError responses, not exceptions.
  EXPECT_EQ(s.run("report jobs dimension nope stats job_count")->status,
            sv::Status::kError);
  // The query path sees the jobs table published alongside the realm.
  EXPECT_EQ(s.run("query jobs group user agg sum(node_hours)")->status,
            sv::Status::kOk);
}

TEST(ServiceReport, NoJobsPublishedIsAnError) {
  sv::Service svc(small_cfg());
  publish_corpus(svc, fuzz_corpus());
  const sv::ResponsePtr r =
      svc.session("r").run("report jobs dimension user stats job_count");
  EXPECT_EQ(r->status, sv::Status::kError);
  EXPECT_NE(r->error.find("no job summaries"), std::string::npos);

  sv::Service empty(small_cfg());
  const sv::ResponsePtr none =
      empty.session("r").run("query corpus agg count()");
  EXPECT_EQ(none->status, sv::Status::kError);
  EXPECT_NE(none->error.find("no data published"), std::string::npos);
}

// --- Concurrency (the TSan target) -----------------------------------------

TEST(ServiceConcurrent, EightClientsGetBitIdenticalAnswers) {
  const wh::Table& corpus = fuzz_corpus();
  sv::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_limit = 256;
  cfg.cache_entries = 8;  // smaller than the pool: hits, misses and evictions
  cfg.default_deadline_ms = 60'000;
  sv::Service svc(cfg);
  publish_corpus(svc, corpus);

  // Precompute the reference answer for a pool of generated requests (with
  // varied engine thread counts riding along in the text).
  struct PoolEntry {
    std::string text;
    wh::Table ref;
  };
  std::vector<PoolEntry> pool;
  for (std::uint64_t i = 0; i < 12; ++i) {
    tk::QuerySpec spec;
    (void)tk::make_request_text(77, i, "corpus", &spec);
    spec.threads = tk::kDiffThreadCounts[i % 3];
    pool.push_back(
        {tk::to_request_text(spec, "corpus"), tk::run_engine(corpus, spec).table});
  }

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 25;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      sv::Session session = svc.session("client-" + std::to_string(c));
      for (int i = 0; i < kRequestsEach; ++i) {
        const PoolEntry& e = pool[(c * 7 + i) % pool.size()];
        const sv::ResponsePtr r = session.run(e.text);
        if (r->status != sv::Status::kOk || !r->table ||
            tk::table_diff(*r->table, e.ref).has_value()) {
          ++failures[c];
        }
      }
      (void)svc.metrics_json();  // exercised concurrently with traffic
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, static_cast<std::uint64_t>(kClients * kRequestsEach));
  EXPECT_EQ(m.completed, m.submitted);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.cache_hits + m.cache_misses, 0u);
}

// --- Metrics export --------------------------------------------------------

TEST(ServiceMetricsExport, JsonCarriesCountersAndHistograms) {
  sv::LatencyHistogram h;
  h.add(0.5);
  h.add(2.0);
  h.add(150.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max_ms(), 150.0);
  EXPECT_LE(h.quantile_ms(0.5), h.quantile_ms(0.99));
  EXPECT_GE(h.quantile_ms(0.5), 0.5);

  sv::Service svc(small_cfg());
  publish_corpus(svc, fuzz_corpus());
  sv::Session s = svc.session("metrics");
  ASSERT_EQ(s.run("query corpus agg sum(value)")->status, sv::Status::kOk);
  ASSERT_EQ(s.run("query corpus agg sum(value)")->status, sv::Status::kOk);
  EXPECT_EQ(s.run("not a request")->status, sv::Status::kError);

  const std::string json = svc.metrics_json();
  for (const char* key :
       {"\"epoch\":1", "\"submitted\":3", "\"parse_errors\":1",
        "\"completed\":2", "\"cache\":{\"hits\":1", "\"queue\":{\"depth\":0",
        "\"latency_ms\":{\"queue_wait\":{", "\"total\":{\"count\":3"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// --- Pipeline serve() ------------------------------------------------------

TEST(ServicePipeline, ServeStandsUpServiceOverArchivedRun) {
  pl::PipelineConfig cfg;
  cfg.spec = fa::scaled(fa::ranger(), 0.008);
  cfg.span = sc::kDay;
  cfg.seed = 4242;
  cfg.archive_dir = scratch_dir("svc-serve");
  cfg.service.workers = 2;

  pl::Serving serving = pl::serve(cfg);
  ASSERT_NE(serving.service, nullptr);
  ASSERT_NE(serving.archive, nullptr);
  EXPECT_EQ(serving.service->epoch(), 1u);

  sv::Session s = serving.service->session("e2e");
  const sv::ResponsePtr q =
      s.run("query jobs group app agg count() as jobs,sum(node_hours)");
  ASSERT_EQ(q->status, sv::Status::kOk) << q->error;
  EXPECT_GT(q->table->rows(), 0u);
  EXPECT_EQ(q->watermark, serving.archive->watermark());

  const sv::ResponsePtr rep = s.run(
      "report jobs dimension user stats job_count,total_node_hours sort "
      "total_node_hours limit 3");
  ASSERT_EQ(rep->status, sv::Status::kOk) << rep->error;
  EXPECT_LE(rep->table->rows(), 3u);
}
