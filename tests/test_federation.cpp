// Federated scatter-gather tests (DESIGN.md §17): merged shard partials must
// be bit-identical to the single-warehouse engine for every shard count and
// placement (rollup-served shard partials included), catalog pruning must
// skip provably irrelevant shards, shard faults must degrade to accounted
// kPartial answers, and every malformed wire conversation — truncations,
// forged CRCs, version mismatches, random bit flips — must surface as a
// sourced error, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "archive/partition.h"
#include "archive/tables.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/time.h"
#include "etl/job_summary.h"
#include "facility/hardware.h"
#include "federation/catalog.h"
#include "federation/executor.h"
#include "federation/federation.h"
#include "federation/transport.h"
#include "federation/wire.h"
#include "service/request.h"
#include "service/service.h"
#include "sim_fixture.h"
#include "testkit/genrequest.h"
#include "testkit/oracle.h"
#include "warehouse/aggstate.h"
#include "warehouse/partial.h"
#include "warehouse/rollup.h"

namespace ar = supremm::archive;
namespace etl = supremm::etl;
namespace fed = supremm::federation;
namespace ru = supremm::warehouse::rollup;
namespace sc = supremm::common;
namespace sv = supremm::service;
namespace tk = supremm::testkit;
namespace wh = supremm::warehouse;
namespace wire = supremm::federation::wire;
using supremm::testing::expect_tables_identical;

namespace {

constexpr std::int64_t kDay = sc::kDay;
constexpr std::uint64_t kSeed = 20130313;

/// Forces rollup serving on for the test body (the SUPREMM_ROLLUP=off ctest
/// leg then re-runs the whole suite with serving disabled; identity must
/// hold either way) and restores the default on exit.
struct EnabledGuard {
  EnabledGuard() { ru::set_enabled(true); }
  ~EnabledGuard() { ru::set_enabled(true); }
};

/// Shard counts under test. SUPREMM_FED_SHARDS pins one count, so CI matrix
/// legs can split the work (and prove each count in isolation).
std::vector<std::size_t> shard_counts() {
  if (const char* env = std::getenv("SUPREMM_FED_SHARDS")) {
    return {static_cast<std::size_t>(std::strtoull(env, nullptr, 10))};
  }
  return {1, 2, 5};
}

const std::vector<etl::JobSummary>& fuzz_jobs() {
  static const std::vector<etl::JobSummary> jobs =
      tk::make_rollup_jobs({.rows = 2500, .seed = 777});
  return jobs;
}

/// The single-warehouse reference: the full population, augmented and
/// zone-indexed exactly as Service::publish_jobs would.
const wh::Table& fuzz_ref() {
  static const wh::Table t = [] {
    wh::Table jt = ar::jobs_table(fuzz_jobs());
    ru::augment_jobs_table(jt);
    jt.rebuild_zone_index(ar::kDefaultChunkRows);
    return jt;
  }();
  return t;
}

/// A federation over loopback transports, owning its executors.
struct Fed {
  std::vector<std::unique_ptr<fed::ShardExecutor>> executors;
  std::vector<std::shared_ptr<fed::LoopbackTransport>> transports;
  std::shared_ptr<fed::Federation> federation;
};

Fed make_fed(const std::vector<std::vector<etl::JobSummary>>& slices, bool rollups,
             fed::Federation::Config cfg = {}) {
  Fed f;
  f.federation = std::make_shared<fed::Federation>(std::move(cfg));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    fed::ShardExecutor::Options opts;
    opts.rollups = rollups;
    auto ex = std::make_unique<fed::ShardExecutor>(
        "shard" + std::to_string(i), ar::jobs_table(slices[i]), opts);
    auto tr = std::make_shared<fed::LoopbackTransport>(*ex);
    f.federation->add_shard(ex->info(), tr);
    f.transports.push_back(tr);
    f.executors.push_back(std::move(ex));
  }
  return f;
}

/// Fuzz query `q` as both the engine-side testkit spec and the compiled
/// service spec the federation scatters.
sv::QuerySpec fuzz_spec(std::uint64_t q, tk::QuerySpec* tspec) {
  const std::string text = tk::make_rollup_request_text(kSeed, q, tspec);
  return sv::parse_request(text).query;
}

sv::QuerySpec parse_query(const std::string& text) {
  return sv::parse_request(text).query;
}

/// Parse one response conversation the way the planner does; throws on any
/// malformed byte.
wire::PartialMsg parse_response_strict(std::string_view resp) {
  std::size_t offset = 0;
  const wire::Frame ack = wire::read_frame(resp, offset);
  if (ack.type != wire::MsgType::kHelloAck) {
    throw sc::ParseError("test: expected hello-ack");
  }
  (void)wire::unpack_hello_ack(ack.payload);
  const wire::Frame body = wire::read_frame(resp, offset);
  if (offset != resp.size()) throw sc::ParseError("test: trailing bytes");
  if (body.type == wire::MsgType::kError) {
    const wire::ErrorMsg err = wire::unpack_error(body.payload);
    throw sc::ParseError("shard error: " + err.message);
  }
  return wire::unpack_partial(body.payload);
}

wh::AggSpec agg(wh::AggKind kind, std::string column = {}) {
  wh::AggSpec a;
  a.kind = kind;
  a.column = std::move(column);
  return a;
}

std::string request_bytes(const sv::QuerySpec& spec) {
  return wire::frame(wire::MsgType::kHello, wire::pack_hello({"test-client"})) +
         wire::frame(wire::MsgType::kQuery, wire::pack_query({spec, 0, "job_id"}));
}

wh::partial::KeyColumn string_column(std::vector<std::string> dict,
                                     std::vector<std::uint32_t> codes) {
  wh::partial::KeyColumn c;
  c.type = wh::ColType::kString;
  c.dict = std::move(dict);
  c.codes = std::move(codes);
  return c;
}

/// One tuple keyed by user "u" at `level`, one single-aggregate state per
/// entry of `days`.
wh::partial::Partial user_partial(wh::partial::Level level, std::vector<std::int64_t> days) {
  wh::partial::Partial p;
  p.naggs = 1;
  p.level = level;
  p.key_schema = {{"user", wh::ColType::kString}};
  p.group = {string_column({"u"}, {0})};
  p.rank = {3};
  p.day_end = {static_cast<std::uint32_t>(days.size())};
  p.states.resize(days.size());
  p.days = std::move(days);
  return p;
}

/// One shard per cluster of a rollup population (c0, c1, c2): every shard
/// holds its cluster exclusively.
std::vector<std::vector<etl::JobSummary>> cluster_slices(
    const std::vector<etl::JobSummary>& jobs) {
  std::vector<std::vector<etl::JobSummary>> slices(3);
  for (const auto& j : jobs) slices[static_cast<std::size_t>(j.cluster[1] - '0')].push_back(j);
  return slices;
}

bool groups_by_cluster(const sv::QuerySpec& spec) {
  return std::find(spec.group_by.begin(), spec.group_by.end(), "cluster") !=
         spec.group_by.end();
}

std::size_t contacted_shards(const sv::RemoteResult& res) {
  std::size_t n = 0;
  for (const auto& s : res.shards) n += s.outcome != sv::RemoteShardReport::Outcome::kPruned;
  return n;
}

/// The catalog's fold rule (DESIGN.md §17) for one answering shard: a lone
/// contacted shard folds to groups; one whose clusters no other contacted
/// shard holds folds to tuples, or to groups when `cluster` is a group key;
/// anything else ships day cells.
wh::partial::Level expected_level(const sv::RemoteResult& res, const sv::QuerySpec& spec,
                                  bool exclusive) {
  using wh::partial::Level;
  if (contacted_shards(res) == 1) return Level::kGroups;
  if (!exclusive) return Level::kDays;
  return groups_by_cluster(spec) ? Level::kGroups : Level::kTuples;
}

}  // namespace

// ---------------------------------------------------------------------------
// The §17 tentpole: merged scatter-gather == single warehouse, bit for bit,
// for shard counts {1,2,5} x threads {1,8} x rollups {off,on}, under
// adversarial (seed-random per (cluster, day) cell) placement, and under
// one shard per cluster, where shards fold tuple and group totals.

TEST(FederationFuzz, ShardCountsThreadsRollupsBitIdentical) {
  EnabledGuard guard;
  constexpr std::size_t kQueries = 90;
  struct Placement {
    std::string name;
    std::vector<std::vector<etl::JobSummary>> slices;
    bool exclusive = false;  // every shard holds its clusters alone
  };
  std::vector<Placement> placements;
  for (const std::size_t nshards : shard_counts()) {
    placements.push_back({"cells x" + std::to_string(nshards),
                          tk::split_jobs_for_shards(fuzz_jobs(), nshards, kSeed + nshards),
                          false});
  }
  placements.push_back({"clusters", cluster_slices(fuzz_jobs()), true});

  for (const Placement& pl : placements) {
    for (const bool rollups : {false, true}) {
      const Fed f = make_fed(pl.slices, rollups);
      for (std::uint64_t q = 0; q < kQueries; ++q) {
        tk::QuerySpec tspec;
        sv::QuerySpec spec = fuzz_spec(q, &tspec);
        SCOPED_TRACE("placement=" + pl.name + " rollups=" + std::to_string(rollups) +
                     " query " + std::to_string(q) + ": " + tk::describe(tspec));
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          spec.threads = threads;
          tspec.threads = threads;
          const sv::RemoteResult res = f.federation->run(spec);
          ASSERT_TRUE(res.complete);
          const tk::QueryRun raw = tk::run_engine(fuzz_ref(), tspec);
          expect_tables_identical(*res.table, raw.table);
          const wh::partial::Level want = expected_level(res, spec, pl.exclusive);
          for (const sv::RemoteShardReport& s : res.shards) {
            if (s.outcome != sv::RemoteShardReport::Outcome::kOk) continue;
            EXPECT_EQ(s.level, want) << s.shard;
          }
        }
        // The engine itself is pinned against the row-at-a-time oracle for
        // the same (seed, index) stream — keep a slice of that differential
        // here so the federation suite is self-contained.
        if (q < 25 && &pl == &placements.front() && !rollups) {
          tspec.threads = 1;
          const auto diff = tk::differential_check(fuzz_ref(), tspec, 1);
          ASSERT_FALSE(diff.has_value()) << *diff;
        }
      }
    }
  }
}

// A mixed catalog: c0 and c1 each on their own shard, c2 split over two
// shards by (cluster, day) cells. The exclusive shards fold while the c2
// pair must ship day cells, so merges union day cells with folded totals.
TEST(FederationFuzz, MixedCatalogMergesDayTupleAndGroupPartials) {
  EnabledGuard guard;
  std::vector<std::vector<etl::JobSummary>> slices(4);
  for (const auto& j : fuzz_jobs()) {
    const std::size_t c = static_cast<std::size_t>(j.cluster[1] - '0');
    slices[c < 2 ? c : 2 + static_cast<std::size_t>(wh::end_day_index(j.end) % 2)].push_back(j);
  }
  for (const bool rollups : {false, true}) {
    const Fed f = make_fed(slices, rollups);
    std::size_t mixed = 0;
    for (std::uint64_t q = 0; q < 60; ++q) {
      tk::QuerySpec tspec;
      const sv::QuerySpec spec = fuzz_spec(q, &tspec);
      SCOPED_TRACE("rollups=" + std::to_string(rollups) + " query " + std::to_string(q) +
                   ": " + tk::describe(tspec));
      const sv::RemoteResult res = f.federation->run(spec);
      ASSERT_TRUE(res.complete);
      expect_tables_identical(*res.table, tk::run_engine(fuzz_ref(), tspec).table);
      // Reports list contacted shards first; index them by catalog position.
      std::map<std::string, const sv::RemoteShardReport*> by_name;
      for (const auto& s : res.shards) by_name[s.shard] = &s;
      ASSERT_EQ(by_name.size(), 4u);
      const auto report = [&by_name](std::size_t i) -> const sv::RemoteShardReport& {
        return *by_name.at("shard" + std::to_string(i));
      };
      const auto contacted = [&report](std::size_t i) {
        return report(i).outcome != sv::RemoteShardReport::Outcome::kPruned;
      };
      bool any_days = false, any_folded = false;
      for (std::size_t i = 0; i < 4; ++i) {
        if (!contacted(i)) continue;
        // The c2 pair owns its tuples only when its sibling is not contacted.
        const bool exclusive = i < 2 || !contacted(i == 2 ? 3 : 2);
        EXPECT_EQ(report(i).level, expected_level(res, spec, exclusive)) << i;
        (report(i).level == wh::partial::Level::kDays ? any_days : any_folded) = true;
      }
      mixed += any_days && any_folded;
    }
    EXPECT_GE(mixed, 10u);
  }

  // One merge over all three levels at once: the exclusive shards answer as
  // group and tuple totals (folding less than the catalog allows is always
  // legal), the c2 pair as day cells.
  const Fed f = make_fed(slices, /*rollups=*/true);
  const sv::QuerySpec spec = parse_query(
      "query jobs group cluster, user agg count(), sum(node_hours), "
      "wmean(cpu_idle, node_hours), min(mem_used_gb), max(mem_used_gb)");
  using wh::partial::Level;
  const Level asked[] = {Level::kGroups, Level::kTuples, Level::kDays, Level::kDays};
  std::vector<wh::partial::Partial> parts;
  for (std::size_t i = 0; i < 4; ++i) {
    parts.push_back(f.executors[i]->execute(spec, 0, "job_id", asked[i]).partial);
    EXPECT_EQ(parts.back().level, asked[i]);
  }
  tk::QuerySpec tspec;
  tspec.group_by = {"cluster", "user"};
  tspec.aggs = {agg(wh::AggKind::kCount), agg(wh::AggKind::kSum, "node_hours"),
                agg(wh::AggKind::kWeightedMean, "cpu_idle"),
                agg(wh::AggKind::kMin, "mem_used_gb"), agg(wh::AggKind::kMax, "mem_used_gb")};
  tspec.aggs[2].weight = "node_hours";
  const wh::Table merged = wh::partial::merge_partials(parts, spec.aggs, "jobs_agg");
  expect_tables_identical(merged, tk::run_engine(fuzz_ref(), tspec).table);

  // A folded unit another partial also reports would count rows twice: the
  // c2 shards hold halves of the same tuples, so neither may fold them.
  for (const Level level : {Level::kTuples, Level::kGroups}) {
    std::vector<wh::partial::Partial> split = {
        f.executors[2]->execute(spec, 0, "job_id", level).partial,
        f.executors[3]->execute(spec, 0, "job_id", Level::kDays).partial};
    EXPECT_THROW((void)wh::partial::merge_partials(split, spec.aggs, "jobs_agg"),
                 sc::InvalidArgument)
        << wh::partial::to_string(level);
  }
  const std::vector<wh::partial::Partial> twice = {parts[0], parts[0]};
  EXPECT_THROW((void)wh::partial::merge_partials(twice, spec.aggs, "jobs_agg"),
               sc::InvalidArgument);
}

TEST(FederationFuzz, RollupServedShardsReportAndMatch) {
  EnabledGuard guard;
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 3, 99);
  const Fed with = make_fed(slices, /*rollups=*/true);
  const Fed without = make_fed(slices, /*rollups=*/false);

  // Subsumption is decided by the query alone, so for every fuzz query the
  // shards must agree on rollup serving, the rollup-armed and rollup-free
  // federations must agree bitwise, and over the stream a healthy share of
  // queries must actually have been served from shard RollupSets.
  std::size_t served_queries = 0;
  for (std::uint64_t q = 0; q < 60; ++q) {
    tk::QuerySpec tspec;
    const sv::QuerySpec spec = fuzz_spec(q, &tspec);
    SCOPED_TRACE("query " + std::to_string(q) + ": " + tk::describe(tspec));
    const sv::RemoteResult a = with.federation->run(spec);
    const sv::RemoteResult b = without.federation->run(spec);
    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    expect_tables_identical(*a.table, *b.table);
    expect_tables_identical(*a.table, tk::run_engine(fuzz_ref(), tspec).table);
    bool any = false, all = true;
    for (const sv::RemoteShardReport& s : a.shards) {
      if (s.outcome != sv::RemoteShardReport::Outcome::kOk) continue;
      any = any || s.rollup_served;
      all = all && s.rollup_served;
    }
    EXPECT_EQ(any, all);  // shards never disagree on subsumption
    if (all && any) ++served_queries;
    for (const sv::RemoteShardReport& s : b.shards) {
      EXPECT_FALSE(s.rollup_served) << s.shard;
    }
  }
  EXPECT_GE(served_queries, 10u);
}

// ---------------------------------------------------------------------------
// Targeted determinism traps: NaN / -0.0 accumulator bits and first-seen
// group order under placement that reverses shard-local discovery order.

namespace {

etl::JobSummary simple_job(std::int64_t id, const std::string& user,
                           const std::string& cluster, std::int64_t day,
                           double metric) {
  etl::JobSummary j;
  j.id = id;
  j.user = user;
  j.app = "app0";
  j.cluster = cluster;
  j.science = "s0";
  j.project = "p0";
  j.end = day * kDay + 4000;
  j.start = j.end - 3600;
  j.submit = j.start - 60;
  j.nodes = 2;
  j.cores = 32;
  j.node_hours = 2.0;
  j.samples = 7;
  j.cpu_idle = metric;
  j.mem_used_gb = metric;
  return j;
}

}  // namespace

TEST(FederationDeterminism, NanAndSignedZeroSurviveTheMerge) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // One group per user; NaN rows and ±0.0 rows deliberately land on
  // different shards (different clusters), so the merge must reproduce the
  // engine's NaN and signed-zero accumulation bit for bit.
  std::vector<etl::JobSummary> jobs = {
      simple_job(1, "alice", "east", 3, kNaN),
      simple_job(2, "alice", "west", 5, -0.0),
      simple_job(3, "bob", "east", 3, 0.0),
      simple_job(4, "bob", "west", 9, -0.0),
      simple_job(5, "carol", "west", 9, kNaN),
      simple_job(6, "carol", "east", 2, kNaN),
  };
  wh::Table ref = ar::jobs_table(jobs);
  ru::augment_jobs_table(ref);

  const sv::QuerySpec spec = parse_query(
      "query jobs group user agg sum(cpu_idle), min(cpu_idle), max(cpu_idle), "
      "mean(mem_used_gb), count()");
  tk::QuerySpec tspec;
  tspec.group_by = {"user"};
  const wh::AggSpec a1 = agg(wh::AggKind::kSum, "cpu_idle");
  const wh::AggSpec a2 = agg(wh::AggKind::kMin, "cpu_idle");
  const wh::AggSpec a3 = agg(wh::AggKind::kMax, "cpu_idle");
  const wh::AggSpec a4 = agg(wh::AggKind::kMean, "mem_used_gb");
  const wh::AggSpec a5 = agg(wh::AggKind::kCount);
  tspec.aggs = {a1, a2, a3, a4, a5};

  // Shard by cluster: east = {1,3,6}, west = {2,4,5}.
  std::vector<std::vector<etl::JobSummary>> slices(2);
  for (const auto& j : jobs) (j.cluster == "east" ? slices[0] : slices[1]).push_back(j);
  const Fed f = make_fed(slices, /*rollups=*/false);
  const sv::RemoteResult res = f.federation->run(spec);
  ASSERT_TRUE(res.complete);
  const tk::QueryRun raw = tk::run_engine(ref, tspec);
  expect_tables_identical(*res.table, raw.table);
  // First-seen group order is min-job-id order: alice (1), bob (3), carol (5).
  ASSERT_EQ(res.table->rows(), 3u);
  EXPECT_EQ(res.table->col("user").as_string(0), "alice");
  EXPECT_EQ(res.table->col("user").as_string(1), "bob");
  EXPECT_EQ(res.table->col("user").as_string(2), "carol");
}

TEST(FederationDeterminism, GroupOrderIgnoresShardLocalDiscoveryOrder) {
  // Shard 1 sees "zed" first among its own rows, but "amy" owns the globally
  // smallest job id on shard 0 — the merged first-seen order must be the
  // single-warehouse order (amy, zed), not scatter arrival or shard order.
  std::vector<etl::JobSummary> jobs = {
      simple_job(1, "amy", "east", 3, 1.0),
      simple_job(2, "zed", "west", 4, 2.0),
      simple_job(3, "amy", "west", 6, 3.0),
      simple_job(4, "zed", "east", 7, 4.0),
  };
  wh::Table ref = ar::jobs_table(jobs);
  ru::augment_jobs_table(ref);

  // Reversed registration: the shard holding "zed"'s first row comes first.
  std::vector<std::vector<etl::JobSummary>> slices(2);
  for (const auto& j : jobs) (j.cluster == "west" ? slices[0] : slices[1]).push_back(j);
  const Fed f = make_fed(slices, /*rollups=*/false);
  const sv::QuerySpec spec = parse_query("query jobs group user agg count()");
  const sv::RemoteResult res = f.federation->run(spec);
  ASSERT_TRUE(res.complete);
  ASSERT_EQ(res.table->rows(), 2u);
  EXPECT_EQ(res.table->col("user").as_string(0), "amy");
  EXPECT_EQ(res.table->col("user").as_string(1), "zed");

  tk::QuerySpec tspec;
  tspec.group_by = {"user"};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  tspec.aggs = {count};
  expect_tables_identical(*res.table, tk::run_engine(ref, tspec).table);
}

// ---------------------------------------------------------------------------
// Catalog pruning: provably irrelevant shards are never contacted, and an
// all-pruned scatter still returns the schema-correct empty table.

TEST(FederationCatalog, ClusterAndDayPruningSkipShards) {
  EnabledGuard guard;
  // One shard per cluster (the rollup population uses c0/c1/c2).
  std::vector<std::vector<etl::JobSummary>> slices(3);
  for (const auto& j : fuzz_jobs()) {
    slices[static_cast<std::size_t>(j.cluster[1] - '0')].push_back(j);
  }
  const Fed f = make_fed(slices, /*rollups=*/false);

  const sv::RemoteResult res =
      f.federation->run(parse_query("query jobs where cluster = \"c1\" agg count()"));
  ASSERT_TRUE(res.complete);
  EXPECT_EQ(f.transports[0]->exchanges(), 0u);
  EXPECT_EQ(f.transports[1]->exchanges(), 1u);
  EXPECT_EQ(f.transports[2]->exchanges(), 0u);
  ASSERT_EQ(res.shards.size(), 3u);
  std::size_t pruned = 0;
  for (const auto& s : res.shards) {
    if (s.outcome == sv::RemoteShardReport::Outcome::kPruned) ++pruned;
  }
  EXPECT_EQ(pruned, 2u);
  tk::QuerySpec tspec;
  tspec.has_where = true;
  tk::PredTerm t;
  t.op = tk::PredOp::kEq;
  t.column = "cluster";
  t.value = "c1";
  tspec.where = {t};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  tspec.aggs = {count};
  expect_tables_identical(*res.table, tk::run_engine(fuzz_ref(), tspec).table);

  // Day-window pruning: split by day halves and bound the query below the
  // upper shard's range.
  std::vector<std::vector<etl::JobSummary>> halves(2);
  for (const auto& j : fuzz_jobs()) {
    halves[wh::end_day_index(j.end) < 50 ? 0 : 1].push_back(j);
  }
  const Fed g = make_fed(halves, /*rollups=*/false);
  const sv::RemoteResult low = g.federation->run(parse_query(
      "query jobs where end between 1 and " + std::to_string(10 * kDay) +
      " group user agg count()"));
  ASSERT_TRUE(low.complete);
  EXPECT_EQ(g.transports[0]->exchanges(), 1u);
  EXPECT_EQ(g.transports[1]->exchanges(), 0u);

  // A window beyond every shard's data: all pruned, one schema-donor
  // contact, empty but schema-correct result.
  const sv::RemoteResult none = g.federation->run(parse_query(
      "query jobs where end >= " + std::to_string(5000 * kDay) +
      " group user agg count(), sum(node_hours)"));
  ASSERT_TRUE(none.complete);
  EXPECT_EQ(none.table->rows(), 0u);
  EXPECT_EQ(g.transports[0]->exchanges(), 2u);
  EXPECT_EQ(g.transports[1]->exchanges(), 0u);
  tk::QuerySpec far;
  far.has_where = true;
  tk::PredTerm ge;
  ge.op = tk::PredOp::kGe;
  ge.column = "end";
  ge.lo = static_cast<double>(5000 * kDay);
  far.where = {ge};
  far.group_by = {"user"};
  const wh::AggSpec sum = agg(wh::AggKind::kSum, "node_hours");
  far.aggs = {count, sum};
  expect_tables_identical(*none.table, tk::run_engine(fuzz_ref(), far).table);
}

TEST(FederationCatalog, EmptyShardIsLegalAndPrunedFromBoundedQueries) {
  auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 7);
  slices.push_back({});  // an empty third shard
  const Fed f = make_fed(slices, /*rollups=*/true);
  const fed::ShardInfo& empty = f.federation->catalog().shards()[2];
  EXPECT_GT(empty.day_lo, empty.day_hi);

  // Unbounded query: the empty shard is contacted and contributes nothing.
  const sv::RemoteResult all =
      f.federation->run(parse_query("query jobs group user, app agg count()"));
  ASSERT_TRUE(all.complete);
  EXPECT_EQ(f.transports[2]->exchanges(), 1u);
  tk::QuerySpec tspec;
  tspec.group_by = {"user", "app"};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  tspec.aggs = {count};
  expect_tables_identical(*all.table, tk::run_engine(fuzz_ref(), tspec).table);

  // Bounded query: the empty day range proves irrelevance; never contacted
  // (the bound sits past the conservative one-day slack).
  const sv::RemoteResult bounded = f.federation->run(parse_query(
      "query jobs where end >= " + std::to_string(3 * kDay) + " group user agg count()"));
  ASSERT_TRUE(bounded.complete);
  EXPECT_EQ(f.transports[2]->exchanges(), 1u);  // unchanged
}

// ---------------------------------------------------------------------------
// Degraded scatter: shard faults and timeouts become accounted kPartial
// service answers; zero-success scatters error.

TEST(FederationService, ShardFaultDegradesToAccountedPartial) {
  EnabledGuard guard;
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 11);
  const Fed f = make_fed(slices, /*rollups=*/false);
  f.transports[1]->set_before(
      [](std::uint32_t) { throw sc::IoError("shard1 is unreachable"); });

  sv::ServiceConfig cfg;
  cfg.workers = 1;
  sv::Service svc(cfg);
  svc.bind_remote(f.federation);
  auto s = svc.session("fed-test");

  const std::string text = "query jobs group user agg count(), sum(node_hours)";
  const sv::ResponsePtr r = s.run(text);
  ASSERT_EQ(r->status, sv::Status::kPartial) << r->error;
  EXPECT_NE(r->error.find("shard1"), std::string::npos) << r->error;
  EXPECT_NE(r->error.find("unreachable"), std::string::npos) << r->error;
  ASSERT_NE(r->table, nullptr);

  // The degraded answer is exactly the surviving shard's single-warehouse
  // answer (partial data, not wrong data).
  wh::Table ref0 = ar::jobs_table(slices[0]);
  ru::augment_jobs_table(ref0);
  tk::QuerySpec tspec;
  tspec.group_by = {"user"};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  const wh::AggSpec sum = agg(wh::AggKind::kSum, "node_hours");
  tspec.aggs = {count, sum};
  expect_tables_identical(*r->table, tk::run_engine(ref0, tspec).table);

  // kPartial is never cached: the retry re-runs the scatter.
  const sv::ResponsePtr r2 = s.run(text);
  EXPECT_EQ(r2->status, sv::Status::kPartial);
  EXPECT_FALSE(r2->cache_hit);

  const sv::ServiceMetrics m = svc.metrics();
  EXPECT_TRUE(m.federation_bound);
  EXPECT_EQ(m.federated, 2u);
  EXPECT_EQ(m.federated_partial, 2u);
  ASSERT_TRUE(m.shards.contains("shard1"));
  EXPECT_EQ(m.shards.at("shard1").errors, 2u);
  EXPECT_EQ(m.shards.at("shard0").ok, 2u);
  const std::string json = svc.metrics_json();
  EXPECT_NE(json.find("\"federation\""), std::string::npos);
  EXPECT_NE(json.find("\"shard1\""), std::string::npos);

  // Shard heals: the same text now completes, serves kOk and caches.
  f.transports[1]->set_before(nullptr);
  const sv::ResponsePtr r3 = s.run(text);
  ASSERT_EQ(r3->status, sv::Status::kOk) << r3->error;
  expect_tables_identical(*r3->table, tk::run_engine(fuzz_ref(), tspec).table);
  const sv::ResponsePtr r4 = s.run(text);
  EXPECT_EQ(r4->status, sv::Status::kOk);
  EXPECT_TRUE(r4->cache_hit);
  expect_tables_identical(*r3->table, *r4->table);
}

TEST(FederationService, TimeoutsAreAccountedAsTimeouts) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 13);
  const Fed f = make_fed(slices, /*rollups=*/false);
  f.transports[0]->set_before([](std::uint32_t deadline_ms) {
    EXPECT_EQ(deadline_ms, fed::Federation::Config{}.shard_deadline_ms);
    throw sc::Cancelled("shard transport: response deadline expired");
  });
  const sv::RemoteResult res =
      f.federation->run(parse_query("query jobs group user agg count()"));
  EXPECT_FALSE(res.complete);
  ASSERT_EQ(res.shards.size(), 2u);
  EXPECT_EQ(res.shards[0].outcome, sv::RemoteShardReport::Outcome::kTimedOut);
  EXPECT_EQ(res.shards[1].outcome, sv::RemoteShardReport::Outcome::kOk);

  // A shard-side timeout travels as an Error frame with the timeout flag;
  // the planner must classify it kTimedOut, not kError.
  const Fed g = make_fed(slices, /*rollups=*/false);
  g.transports[1]->set_corrupt([&g](std::string& resp) {
    resp = wire::frame(wire::MsgType::kHelloAck, wire::pack_hello_ack({"shard1"})) +
           wire::frame(wire::MsgType::kError,
                       wire::pack_error({"query abandoned at safe point", true}));
  });
  const sv::RemoteResult res2 =
      g.federation->run(parse_query("query jobs group user agg count()"));
  EXPECT_FALSE(res2.complete);
  EXPECT_EQ(res2.shards[1].outcome, sv::RemoteShardReport::Outcome::kTimedOut);
  EXPECT_NE(res2.shards[1].error.find("abandoned"), std::string::npos);
}

TEST(FederationService, ZeroSuccessScatterIsAnError) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 17);
  const Fed f = make_fed(slices, /*rollups=*/false);
  for (const auto& t : f.transports) {
    t->set_before([](std::uint32_t) { throw sc::IoError("rack power loss"); });
  }
  EXPECT_THROW((void)f.federation->run(parse_query("query jobs agg count()")),
               sc::IoError);

  sv::ServiceConfig cfg;
  cfg.workers = 1;
  sv::Service svc(cfg);
  svc.bind_remote(f.federation);
  const sv::ResponsePtr r = svc.session("c").run("query jobs agg count()");
  EXPECT_EQ(r->status, sv::Status::kError);
  EXPECT_NE(r->error.find("every contacted shard"), std::string::npos) << r->error;
}

TEST(FederationService, AllowPartialFalseFailsClosed) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 19);
  fed::Federation::Config cfg;
  cfg.allow_partial = false;
  const Fed f = make_fed(slices, /*rollups=*/false, cfg);
  f.transports[1]->set_before([](std::uint32_t) { throw sc::IoError("down"); });
  EXPECT_THROW((void)f.federation->run(parse_query("query jobs agg count()")),
               sc::IoError);
}

TEST(FederationService, MetricsCountFoldLevelsAndBytes) {
  EnabledGuard guard;
  const Fed f = make_fed(cluster_slices(fuzz_jobs()), /*rollups=*/true);
  sv::ServiceConfig cfg;
  cfg.workers = 1;
  sv::Service svc(cfg);
  svc.bind_remote(f.federation);
  auto s = svc.session("fed-test");
  ASSERT_EQ(s.run("query jobs group user agg count()")->status, sv::Status::kOk);
  ASSERT_EQ(s.run("query jobs group cluster agg count()")->status, sv::Status::kOk);
  ASSERT_EQ(s.run("query jobs where cluster = \"c1\" group user agg count()")->status,
            sv::Status::kOk);

  const sv::ServiceMetrics m = svc.metrics();
  // shard1 answered all three: tuple totals, then group totals twice (a
  // cluster key, then as the only shard contacted); the others were pruned
  // from the third query.
  const auto& c1 = m.shards.at("shard1");
  EXPECT_EQ(c1.ok, 3u);
  EXPECT_EQ(c1.levels, (std::array<std::uint64_t, 3>{0, 1, 2}));
  EXPECT_GT(c1.bytes, 0u);
  const auto& c0 = m.shards.at("shard0");
  EXPECT_EQ(c0.pruned, 1u);
  EXPECT_EQ(c0.levels, (std::array<std::uint64_t, 3>{0, 1, 1}));
  const std::string json = svc.metrics_json();
  EXPECT_NE(json.find("\"levels\":{\"days\":0,\"tuples\":1,\"groups\":2},\"bytes\":" +
                      std::to_string(c1.bytes)),
            std::string::npos)
      << json;
}

TEST(FederationService, CatalogThatHidesAClusterFailsClosed) {
  EnabledGuard guard;
  // c1 is spread over both shards by (cluster, day) cells, but shard0's
  // catalog entry lists only c0. The planner then believes each shard owns
  // its clusters and asks both to fold; the merge sees the same c1 tuple
  // (or group) folded twice and must refuse rather than double-count.
  std::vector<std::vector<etl::JobSummary>> slices(2);
  for (const auto& j : fuzz_jobs()) {
    const bool first = j.cluster == "c0" ||
                       (j.cluster == "c1" && wh::end_day_index(j.end) % 2 == 0);
    slices[first ? 0 : 1].push_back(j);
  }
  for (const bool rollups : {false, true}) {
    std::vector<std::unique_ptr<fed::ShardExecutor>> executors;
    auto federation = std::make_shared<fed::Federation>();
    for (std::size_t i = 0; i < 2; ++i) {
      fed::ShardExecutor::Options opts;
      opts.rollups = rollups;
      executors.push_back(std::make_unique<fed::ShardExecutor>(
          "shard" + std::to_string(i), ar::jobs_table(slices[i]), opts));
      fed::ShardInfo info = executors.back()->info();
      if (i == 0) {
        ASSERT_EQ(info.clusters.size(), 2u);
        info.clusters = {"c0"};
      }
      federation->add_shard(info, std::make_shared<fed::LoopbackTransport>(*executors.back()));
    }
    sv::ServiceConfig cfg;
    cfg.workers = 1;
    sv::Service svc(cfg);
    svc.bind_remote(federation);
    auto s = svc.session("fed-test");
    for (const char* text : {"query jobs group user agg count(), sum(node_hours)",
                             "query jobs group cluster agg count(), sum(node_hours)",
                             "query jobs group cluster, week agg max(node_hours)"}) {
      const sv::ResponsePtr r = s.run(text);
      EXPECT_EQ(r->status, sv::Status::kError) << text;
      EXPECT_EQ(r->table, nullptr) << text;
      EXPECT_NE(r->error.find("reported"), std::string::npos) << r->error;
    }
  }
}

TEST(FederationService, PurelyFederatedServiceAdmitsQueries) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 23);
  const Fed f = make_fed(slices, /*rollups=*/false);
  sv::ServiceConfig cfg;
  cfg.workers = 1;
  sv::Service svc(cfg);
  svc.bind_remote(f.federation);  // no publish_* at all
  const sv::ResponsePtr r = svc.session("c").run("query jobs group app agg count()");
  ASSERT_EQ(r->status, sv::Status::kOk) << r->error;
  tk::QuerySpec tspec;
  tspec.group_by = {"app"};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  tspec.aggs = {count};
  expect_tables_identical(*r->table, tk::run_engine(fuzz_ref(), tspec).table);
  // Non-federated tables still resolve against the (empty) local snapshot.
  const sv::ResponsePtr miss = svc.session("c").run("query other agg count()");
  EXPECT_EQ(miss->status, sv::Status::kError);
}

// ---------------------------------------------------------------------------
// Real sockets: the same bytes over TCP, including the stalled-shard
// deadline and a killed daemon.

TEST(FederationSocket, SocketAndLoopbackAnswersAreIdentical) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 29);
  const Fed loop = make_fed(slices, /*rollups=*/false);

  fed::ShardExecutor::Options opts;
  opts.rollups = false;
  fed::ShardExecutor ex0("shard0", ar::jobs_table(slices[0]), opts);
  fed::ShardExecutor ex1("shard1", ar::jobs_table(slices[1]), opts);
  fed::ShardServer srv0(ex0), srv1(ex1);
  auto sock = std::make_shared<fed::Federation>();
  sock->add_shard(ex0.info(),
                  std::make_shared<fed::SocketTransport>("127.0.0.1", srv0.port()));
  sock->add_shard(ex1.info(),
                  std::make_shared<fed::SocketTransport>("127.0.0.1", srv1.port()));

  for (std::uint64_t q = 0; q < 12; ++q) {
    tk::QuerySpec tspec;
    const sv::QuerySpec spec = fuzz_spec(q, &tspec);
    const sv::RemoteResult via_sock = sock->run(spec);
    const sv::RemoteResult via_loop = loop.federation->run(spec);
    ASSERT_TRUE(via_sock.complete);
    expect_tables_identical(*via_sock.table, *via_loop.table);
    expect_tables_identical(*via_sock.table, tk::run_engine(fuzz_ref(), tspec).table);
  }
}

TEST(FederationSocket, StalledAndKilledShardsDegrade) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 31);
  fed::ShardExecutor::Options opts;
  opts.rollups = false;
  fed::ShardExecutor ex0("shard0", ar::jobs_table(slices[0]), opts);
  fed::ShardExecutor ex1("shard1", ar::jobs_table(slices[1]), opts);
  fed::ShardServer srv0(ex0), srv1(ex1);

  fed::Federation::Config cfg;
  cfg.shard_deadline_ms = 150;
  auto federation = std::make_shared<fed::Federation>(cfg);
  federation->add_shard(ex0.info(),
                        std::make_shared<fed::SocketTransport>("127.0.0.1", srv0.port()));
  federation->add_shard(ex1.info(),
                        std::make_shared<fed::SocketTransport>("127.0.0.1", srv1.port()));

  // Stall shard1 past the deadline: the scatter must degrade, not hang.
  srv1.set_stall_ms(2000);
  const sv::QuerySpec spec = parse_query("query jobs group user agg count()");
  const sv::RemoteResult stalled = federation->run(spec);
  EXPECT_FALSE(stalled.complete);
  EXPECT_EQ(stalled.shards[0].outcome, sv::RemoteShardReport::Outcome::kOk);
  EXPECT_EQ(stalled.shards[1].outcome, sv::RemoteShardReport::Outcome::kTimedOut);

  // Kill shard1's daemon outright: connection refused -> kError, still a
  // served (partial) answer from shard0.
  srv1.stop();
  const sv::RemoteResult killed = federation->run(spec);
  EXPECT_FALSE(killed.complete);
  EXPECT_EQ(killed.shards[0].outcome, sv::RemoteShardReport::Outcome::kOk);
  EXPECT_EQ(killed.shards[1].outcome, sv::RemoteShardReport::Outcome::kError);
  wh::Table ref0 = ar::jobs_table(slices[0]);
  ru::augment_jobs_table(ref0);
  tk::QuerySpec tspec;
  tspec.group_by = {"user"};
  const wh::AggSpec count = agg(wh::AggKind::kCount);
  tspec.aggs = {count};
  expect_tables_identical(*killed.table, tk::run_engine(ref0, tspec).table);
}

// ---------------------------------------------------------------------------
// Wire protocol hardening: every malformed conversation is a sourced error,
// never a crash; version mismatches are rejected at the frame header.

TEST(FederationWire, MessageRoundTripsPreserveBits) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sv::QuerySpec spec = parse_query(
      "query jobs where cluster = \"c\\\"quoted\\\"\" and end between 1 and 2 "
      "group user, day agg wmean(cpu_idle, node_hours) as w, count()");
  spec.where[1].lo = -0.0;
  spec.where[1].hi = kNaN;
  const wire::QueryMsg q{spec, 1234, "job_id"};
  const wire::QueryMsg rt = wire::unpack_query(wire::pack_query(q));
  EXPECT_EQ(sv::print_request({sv::Request::Kind::kQuery, rt.spec, {}}),
            sv::print_request({sv::Request::Kind::kQuery, spec, {}}));
  EXPECT_EQ(rt.deadline_ms, 1234u);
  EXPECT_EQ(rt.rank_column, "job_id");
  EXPECT_EQ(std::signbit(rt.spec.where[1].lo), true);
  EXPECT_NE(rt.spec.where[1].hi, rt.spec.where[1].hi);  // NaN survived

  // String, double and int64 key columns: an embedded NUL survives
  // length-prefixed dictionary strings, -0.0 and a NaN payload survive as
  // bit patterns.
  wire::PartialMsg p;
  p.rollup_served = true;
  p.partial = user_partial(wh::partial::Level::kDays, {-3, 0, 7});
  p.partial.group[0].dict = {std::string("u\0x", 3)};
  p.partial.rank = {-5};
  wh::partial::KeyColumn dbl;
  dbl.type = wh::ColType::kDouble;
  dbl.words = {0x7ff8000000000123ull};
  wh::partial::KeyColumn i64;
  i64.type = wh::ColType::kInt64;
  i64.words = {static_cast<std::uint64_t>(std::int64_t{-7})};
  p.partial.extra = {dbl, i64};
  p.partial.states[0].sum = -0.0;
  p.partial.states[1].mn = kNaN;
  p.partial.states[2].n = 42;
  const wire::PartialMsg prt = wire::unpack_partial(wire::pack_partial(p));
  ASSERT_EQ(prt.partial.tuples(), 1u);
  EXPECT_TRUE(prt.rollup_served);
  EXPECT_EQ(prt.partial.group[0].dict, p.partial.group[0].dict);
  EXPECT_EQ(prt.partial.group[0].codes, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(prt.partial.extra.size(), 2u);
  EXPECT_EQ(prt.partial.extra[0].type, wh::ColType::kDouble);
  EXPECT_EQ(prt.partial.extra[0].words, dbl.words);
  EXPECT_EQ(prt.partial.extra[1].type, wh::ColType::kInt64);
  EXPECT_EQ(prt.partial.extra[1].words, i64.words);
  EXPECT_EQ(prt.partial.rank, (std::vector<std::int64_t>{-5}));
  EXPECT_EQ(prt.partial.day_end, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(prt.partial.days, (std::vector<std::int64_t>{-3, 0, 7}));
  EXPECT_TRUE(std::signbit(prt.partial.states[0].sum));
  EXPECT_NE(prt.partial.states[1].mn, prt.partial.states[1].mn);
  EXPECT_EQ(prt.partial.states[2].n, 42);
}

TEST(FederationWire, ServeRejectsMalformedRequestsWithoutCrashing) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 37);
  fed::ShardExecutor::Options opts;
  opts.rollups = false;
  const fed::ShardExecutor ex("shard0", ar::jobs_table(slices[0]), opts);
  const std::string good = request_bytes(parse_query("query jobs agg count()"));

  // A well-formed request serves a partial.
  EXPECT_NO_THROW((void)parse_response_strict(ex.serve(good)));

  const auto expect_error = [&ex](std::string_view request, const char* what) {
    const std::string resp = ex.serve(request);  // must not throw
    std::size_t offset = 0;
    const wire::Frame ack = wire::read_frame(resp, offset);
    ASSERT_EQ(ack.type, wire::MsgType::kHelloAck);
    const wire::Frame body = wire::read_frame(resp, offset);
    ASSERT_EQ(body.type, wire::MsgType::kError) << what;
    const wire::ErrorMsg err = wire::unpack_error(body.payload);
    EXPECT_FALSE(err.message.empty()) << what;
    EXPECT_NE(err.message.find("wire:"), std::string::npos)
        << what << ": " << err.message;
  };

  // Truncation sweep: every proper prefix is rejected with a sourced error.
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_error(std::string_view(good).substr(0, len), "truncated");
  }

  // Forged CRC on the first frame.
  std::string forged = good;
  forged[wire::kFrameHeaderBytes + 2] ^= 0x01;  // inside hello payload
  expect_error(forged, "crc");

  // Version mismatch: bump the version field and re-seal the CRC, so the
  // *version check itself* rejects the frame.
  constexpr std::uint16_t kPeerVersion = wire::kProtocolVersion + 1;
  std::string vbump = good;
  vbump[4] = static_cast<char>(kPeerVersion);
  {
    std::uint32_t len32 = 0;
    std::memcpy(&len32, vbump.data() + 8, 4);
    const std::size_t body_len = wire::kFrameHeaderBytes + len32;
    const std::uint32_t crc =
        sc::crc32(std::string_view(vbump.data(), body_len));
    std::memcpy(vbump.data() + body_len, &crc, 4);
  }
  {
    const std::string resp = ex.serve(vbump);
    std::size_t offset = 0;
    (void)wire::read_frame(resp, offset);
    const wire::Frame body = wire::read_frame(resp, offset);
    ASSERT_EQ(body.type, wire::MsgType::kError);
    const wire::ErrorMsg err = wire::unpack_error(body.payload);
    EXPECT_NE(err.message.find("version mismatch"), std::string::npos) << err.message;
    EXPECT_NE(err.message.find("peer " + std::to_string(kPeerVersion)), std::string::npos)
        << err.message;
  }

  // Bad magic.
  std::string bad_magic = good;
  bad_magic[0] ^= 0xff;
  expect_error(bad_magic, "magic");

  // Frames in the wrong order (query before hello).
  std::size_t off = 0;
  const wire::Frame f1 = wire::read_frame(good, off);
  const std::string swapped = good.substr(off) + good.substr(0, off);
  (void)f1;
  expect_error(swapped, "order");

  // Random single-bit flips anywhere in the conversation: always a
  // well-formed error response, never a crash or a served partial built
  // from the wrong bytes — CRC-32 detects every single-bit error, and the
  // CRC covers header and payload alike.
  sc::RngStream g(kSeed, "fed.bitflip", 0);
  for (int i = 0; i < 300; ++i) {
    std::string mutant = good;
    const auto pos = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(mutant.size()) - 1));
    mutant[pos] ^= static_cast<char>(1 << g.uniform_int(0, 7));
    const std::string resp = ex.serve(mutant);  // must not throw
    std::size_t o = 0;
    const wire::Frame ack = wire::read_frame(resp, o);
    ASSERT_EQ(ack.type, wire::MsgType::kHelloAck);
    const wire::Frame body = wire::read_frame(resp, o);
    ASSERT_EQ(body.type, wire::MsgType::kError) << "flip at " << pos;
  }
}

TEST(FederationWire, CorruptedResponsesAreSourcedPlannerErrors) {
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 41);
  const Fed f = make_fed(slices, /*rollups=*/false);

  // Truncate shard0's response mid-partial.
  f.transports[0]->set_corrupt([](std::string& resp) {
    resp.resize(resp.size() / 2);
  });
  sv::RemoteResult res = f.federation->run(parse_query("query jobs agg count()"));
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.shards[0].outcome, sv::RemoteShardReport::Outcome::kError);
  EXPECT_NE(res.shards[0].error.find("wire:"), std::string::npos)
      << res.shards[0].error;

  // Forge a CRC in shard0's response.
  f.transports[0]->set_corrupt([](std::string& resp) {
    resp[resp.size() / 2] ^= 0x20;
  });
  res = f.federation->run(parse_query("query jobs agg count()"));
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.shards[0].outcome, sv::RemoteShardReport::Outcome::kError);

  // Random bit flips over the response: planner degrades, never crashes.
  sc::RngStream g(kSeed, "fed.respflip", 0);
  f.transports[0]->set_corrupt([&g](std::string& resp) {
    const auto pos = static_cast<std::size_t>(
        g.uniform_int(0, static_cast<std::int64_t>(resp.size()) - 1));
    resp[pos] ^= static_cast<char>(1 << g.uniform_int(0, 7));
  });
  for (int i = 0; i < 100; ++i) {
    res = f.federation->run(parse_query("query jobs group user agg count()"));
    EXPECT_FALSE(res.complete);
    EXPECT_EQ(res.shards[0].outcome, sv::RemoteShardReport::Outcome::kError);
    EXPECT_EQ(res.shards[1].outcome, sv::RemoteShardReport::Outcome::kOk);
  }

  // A day list that is not strictly ascending must be rejected by the
  // decoder (it would silently break the fold otherwise).
  wire::PartialMsg bad;
  bad.partial = user_partial(wh::partial::Level::kDays, {5, 5});
  EXPECT_THROW((void)wire::unpack_partial(wire::pack_partial(bad)), sc::ParseError);
}

TEST(FederationWire, FoldLevelsRoundTripAndAreValidated) {
  using wh::partial::Level;
  sv::QuerySpec spec = parse_query("query jobs group user agg count()");
  for (const Level level : {Level::kDays, Level::kTuples, Level::kGroups}) {
    const wire::QueryMsg rt = wire::unpack_query(wire::pack_query({spec, 0, "job_id", level}));
    EXPECT_EQ(rt.level, level);
  }

  // A group total: one day entry, no extra keys.
  wire::PartialMsg p;
  p.partial = user_partial(Level::kGroups, {12});
  p.partial.states[0].n = 9;
  const wire::PartialMsg prt = wire::unpack_partial(wire::pack_partial(p));
  EXPECT_EQ(prt.partial.level, Level::kGroups);
  ASSERT_EQ(prt.partial.tuples(), 1u);
  EXPECT_EQ(prt.partial.days, (std::vector<std::int64_t>{12}));
  EXPECT_EQ(prt.partial.states[0].n, 9);

  // A level above groups, in either direction.
  wire::QueryMsg bad_query{spec, 0, "job_id", static_cast<Level>(3)};
  EXPECT_THROW((void)wire::unpack_query(wire::pack_query(bad_query)), sc::ParseError);
  wire::PartialMsg bad_level = p;
  bad_level.partial.level = static_cast<Level>(3);
  EXPECT_THROW((void)wire::unpack_partial(wire::pack_partial(bad_level)), sc::ParseError);

  // A folded tuple whose day list is not exactly one entry.
  for (const Level level : {Level::kTuples, Level::kGroups}) {
    wire::PartialMsg two_days;
    two_days.partial = user_partial(level, {12, 13});
    EXPECT_THROW((void)wire::unpack_partial(wire::pack_partial(two_days)), sc::ParseError);
    wire::PartialMsg no_days;
    no_days.partial = user_partial(level, {});
    EXPECT_THROW((void)wire::unpack_partial(wire::pack_partial(no_days)), sc::ParseError);
  }

  // A group total with extra keys; the same tuple is legal as a tuple total.
  wire::PartialMsg extra = p;
  extra.partial.extra = {string_column({"c0"}, {0})};
  EXPECT_THROW((void)wire::unpack_partial(wire::pack_partial(extra)), sc::ParseError);
  extra.partial.level = Level::kTuples;
  EXPECT_NO_THROW((void)wire::unpack_partial(wire::pack_partial(extra)));
}

TEST(FederationWire, CoordinatorRejectsAPartialFoldedPastItsLevel) {
  // Under (cluster, day)-cell placement the coordinator asks for day cells;
  // a shard that answers with group totals anyway would merge rows it does
  // not own.
  const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), 2, 47);
  const Fed f = make_fed(slices, /*rollups=*/false);
  const sv::QuerySpec spec = parse_query("query jobs group user agg count()");
  const fed::ShardExecutor& ex0 = *f.executors[0];
  f.transports[0]->set_corrupt([&ex0, &spec](std::string& resp) {
    resp = wire::frame(wire::MsgType::kHelloAck, wire::pack_hello_ack({"shard0"})) +
           wire::frame(wire::MsgType::kPartial,
                       wire::pack_partial(
                           ex0.execute(spec, 0, "job_id", wh::partial::Level::kGroups)));
  });
  const sv::RemoteResult res = f.federation->run(spec);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.shards[0].outcome, sv::RemoteShardReport::Outcome::kError);
  EXPECT_NE(res.shards[0].error.find("folded to groups"), std::string::npos)
      << res.shards[0].error;
  EXPECT_EQ(res.shards[1].outcome, sv::RemoteShardReport::Outcome::kOk);
  EXPECT_EQ(res.shards[1].level, wh::partial::Level::kDays);
}

// ---------------------------------------------------------------------------
// The facility fleet helper behind the README quickstart.

TEST(FederationFacility, HeterogeneousFleetNamesAndScales) {
  const auto fleet = supremm::facility::heterogeneous_fleet(5, 0.01);
  ASSERT_EQ(fleet.size(), 5u);
  EXPECT_EQ(fleet[0].name, "ranger");
  EXPECT_EQ(fleet[1].name, "lonestar4");
  EXPECT_EQ(fleet[2].name, "ranger-2");
  EXPECT_EQ(fleet[3].name, "lonestar4-2");
  EXPECT_EQ(fleet[4].name, "ranger-3");
  EXPECT_EQ(fleet[0].node.cores(), 16u);
  EXPECT_EQ(fleet[1].node.cores(), 12u);
  EXPECT_LT(fleet[0].node_count, 100u);
  EXPECT_THROW((void)supremm::facility::heterogeneous_fleet(0, 1.0),
               sc::InvalidArgument);
}

TEST(FederationPlacement, SplitIsAPartitionAndRespectsCells) {
  for (const std::size_t nshards : shard_counts()) {
    const auto slices = tk::split_jobs_for_shards(fuzz_jobs(), nshards, 43);
    std::size_t total = 0;
    // Every (cluster, day) cell lands on exactly one shard.
    std::map<std::pair<std::string, std::int64_t>, std::size_t> owner;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      total += slices[s].size();
      for (const auto& j : slices[s]) {
        const auto key = std::make_pair(j.cluster, wh::end_day_index(j.end));
        const auto [it, inserted] = owner.emplace(key, s);
        EXPECT_EQ(it->second, s) << j.cluster;
      }
    }
    EXPECT_EQ(total, fuzz_jobs().size());
  }
}
