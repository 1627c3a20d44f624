// Differential oracle suite (ctest label: oracle; DESIGN.md §12).
//
// A deliberately naive row-at-a-time interpreter (src/testkit/oracle.h)
// re-executes grammar-generated queries and the results must agree with the
// vectorized engine bit-for-bit — values, group order and QueryStats — at
// every thread count. Divergences are minimized and dumped as replay seed
// files (replay with SUPREMM_TESTKIT_REPLAY=<file> build/tests/test_oracle).
//
// Environment knobs:
//   SUPREMM_TESTKIT_LONG=N      run N generated queries instead of the smoke 500
//   SUPREMM_TESTKIT_SEED_DIR=D  dump replay seed files into D (default ".")
//   SUPREMM_TESTKIT_REPLAY=F    additionally re-run the dumped seed file F
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/strings.h"
#include "testkit/genquery.h"
#include "testkit/oracle.h"
#include "testkit/replay.h"
#include "warehouse/partial.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace {

using namespace supremm;
namespace fs = std::filesystem;

std::string seed_dir() {
  const char* d = std::getenv("SUPREMM_TESTKIT_SEED_DIR");
  return d != nullptr ? d : ".";
}

// --- the tentpole: generated differential run -----------------------------

TEST(OracleDifferential, EngineMatchesOracleOnGeneratedQueries) {
  testkit::DiffConfig cfg;
  cfg.seed = 20130313;
  cfg.queries = 500;  // smoke floor; the long run is opt-in
  if (const char* n = std::getenv("SUPREMM_TESTKIT_LONG")) {
    cfg.queries = static_cast<std::size_t>(std::strtoull(n, nullptr, 10));
  }
  cfg.seed_dir = seed_dir();

  const testkit::DiffReport rep = testkit::run_differential(cfg);
  EXPECT_EQ(rep.queries_run, cfg.queries);
  // Every query is checked at every thread count unless it diverges early.
  EXPECT_GE(rep.checks, cfg.queries * std::size(testkit::kDiffThreadCounts) -
                            2 * rep.divergences.size());
  for (std::size_t i = 0; i < rep.divergences.size(); ++i) {
    ADD_FAILURE() << "divergence (replay: SUPREMM_TESTKIT_REPLAY=" << rep.seed_files[i]
                  << " build/tests/test_oracle): " << rep.divergences[i];
  }
}

// The engine must agree with the oracle under every dispatch tier, not just
// the one the host picks: the oracle's row-at-a-time lane-8 arithmetic is
// tier-free, so forcing the scalar kernels re-proves the engine's vector
// tiers and its scalar tier compute the very same bits (DESIGN.md §15).
TEST(OracleDifferential, EngineMatchesOracleUnderForcedScalarTier) {
  namespace simd = common::simd;
  simd::set_tier(simd::Tier::kScalar);
  testkit::DiffConfig cfg;
  cfg.seed = 20130314;  // fresh seed: different queries from the native leg
  cfg.queries = 150;
  cfg.seed_dir = seed_dir();
  const testkit::DiffReport rep = testkit::run_differential(cfg);
  simd::set_tier(simd::hardware_tier());
  EXPECT_EQ(rep.queries_run, cfg.queries);
  for (std::size_t i = 0; i < rep.divergences.size(); ++i) {
    ADD_FAILURE() << "scalar-tier divergence (replay: SUPREMM_TESTKIT_REPLAY="
                  << rep.seed_files[i] << " build/tests/test_oracle): "
                  << rep.divergences[i];
  }
}

TEST(OracleDifferential, HandcraftedQueryAgrees) {
  const warehouse::Table corpus =
      testkit::make_corpus({.rows = 256, .chunk_rows = 64, .seed = 99});
  testkit::QuerySpec spec;
  spec.has_where = true;
  spec.where.push_back({testkit::PredOp::kBetween, "value", "", -3.0, 4.5});
  spec.group_by = {"user", "day"};
  spec.aggs = {{"value", warehouse::AggKind::kSum, "", ""},
               {"value", warehouse::AggKind::kWeightedMean, "weight", "wm"},
               {"", warehouse::AggKind::kCount, "", "n"}};
  for (const std::size_t threads : testkit::kDiffThreadCounts) {
    const auto d = testkit::differential_check(corpus, spec, threads);
    EXPECT_FALSE(d.has_value()) << *d;
  }
}

// --- time-partitioned contract edges ---------------------------------------

/// A time-partitioned table (partition subkeys user, node, cluster) built to
/// hit the edges of the sorted-cell-run aggregation:
///   - a head of 12 sub-tuples whose cells interleave in match order, each
///     with cells on days 2^40 and 2^46 either side of zero (a (sub-tuple,
///     day) pair packed into one 64-bit key would overflow) and on negative
///     days, holding mostly finite values so a cell's sum depends on the
///     order its rows are added in;
///   - a tail of more than 65 536 sub-tuples with two rows each, far apart,
///     so the sub-tuple id table grows several times and every tuple is
///     looked up again after the table has grown;
///   - NaN (two payloads), -0.0, +0.0 and ±inf metric values, and a double
///     column with the same hazards to group by.
warehouse::Table time_partition_edges() {
  using warehouse::ColType;
  constexpr std::size_t kHead = 20000;
  constexpr std::int64_t kTailNodes = 66000;
  constexpr std::size_t kRows = kHead + 2 * kTailNodes;
  constexpr std::int64_t kDay = 86400;
  constexpr std::int64_t kFar40 = std::int64_t{1} << 40;
  constexpr std::int64_t kFar46 = std::int64_t{1} << 46;
  constexpr std::int64_t kHeadDays[] = {-kFar46, -kFar40, -kFar40 + 3, -9, -1,
                                        0,       6,       kFar40,      kFar46 - 1};
  constexpr std::int64_t kFarDays[] = {-kFar46, -kFar40, kFar40, kFar46 - 1};
  const double nan_a = std::numeric_limits<double>::quiet_NaN();
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7ff80000000beef5});
  const double inf = std::numeric_limits<double>::infinity();
  const double hazards[] = {nan_a, nan_b, -0.0, 0.0, inf, -inf};
  const double keys[] = {nan_a, nan_b, -0.0, 0.0, 1.5};

  warehouse::Table t("edges", {{"id", ColType::kInt64},
                               {"end", ColType::kInt64},
                               {"user", ColType::kString},
                               {"node", ColType::kInt64},
                               {"cluster", ColType::kString},
                               {"key", ColType::kDouble},
                               {"value", ColType::kDouble},
                               {"weight", ColType::kDouble},
                               {"cores", ColType::kInt64}});
  common::RngStream g(20130527, "test.oracle.tp_edges", 0);
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto i = static_cast<std::int64_t>(r);
    const bool head = r < kHead;
    const std::int64_t node = head ? i % 4 : (i - std::int64_t{kHead}) % kTailNodes;
    std::int64_t day = 0;
    if (head) {
      day = kHeadDays[(i / 5) % std::ssize(kHeadDays)];
    } else if (g.chance(0.3)) {
      day = kFarDays[g.uniform_int(0, std::ssize(kFarDays) - 1)];
    } else {
      day = g.uniform_int(-40, 60);
    }
    const double hazard_p = head ? 0.002 : 0.1;
    const double value = g.chance(hazard_p)
                             ? hazards[g.uniform_int(0, std::ssize(hazards) - 1)]
                             : g.uniform(-100.0, 100.0);
    const double weight =
        g.chance(hazard_p / 2) ? hazards[g.uniform_int(0, 3)] : g.uniform(0.0, 8.0);
    t.append()
        .set("id", i)
        .set("end", day * kDay + g.uniform_int(1, kDay))
        .set("user", common::strprintf("u%lld", static_cast<long long>(head ? i % 3 : node % 12)))
        .set("node", node)
        .set("cluster", common::strprintf("c%lld", static_cast<long long>(node % 2)))
        .set("key", keys[g.uniform_int(0, std::ssize(keys) - 1)])
        .set("value", value)
        .set("weight", weight)
        .set("cores", g.uniform_int(1, 64));
  }
  t.rebuild_zone_index(1024);
  t.set_time_partition("end", {"user", "node", "cluster"});
  return t;
}

TEST(OracleDifferential, TimePartitionedEdgesAgree) {
  using warehouse::AggKind;
  const warehouse::Table table = time_partition_edges();
  const std::vector<warehouse::AggSpec> all_kinds = {
      {"", AggKind::kCount, "", "n"},         {"value", AggKind::kSum, "", ""},
      {"value", AggKind::kMean, "", ""},      {"value", AggKind::kMin, "", ""},
      {"value", AggKind::kMax, "", ""},       {"value", AggKind::kWeightedMean, "weight", ""},
      {"cores", AggKind::kWeightedMean, "value", "cw"}};
  const double far_end = 0x1p47 * 86400.0;
  struct Case {
    std::vector<testkit::PredTerm> where;
    std::vector<std::string> group_by;
  };
  const std::vector<Case> cases = {
      {{}, {"cluster"}},  // more than 65 536 sub-tuples in a handful of groups
      {{}, {}},
      {{{testkit::PredOp::kBetween, "end", "", -far_end, far_end}}, {"key", "user"}},
      {{{testkit::PredOp::kLe, "end", "", 0.0, 0.0}}, {"user"}},  // negative days
      {{{testkit::PredOp::kGe, "end", "", 0x1p40 * 86400.0, 0.0}}, {"key"}},
      {{{testkit::PredOp::kEq, "cluster", "c1", 0.0, 0.0}}, {"user", "node", "cluster"}},
      {{{testkit::PredOp::kGe, "value", "", -50.0, 0.0}}, {"node"}},
      {{{testkit::PredOp::kLe, "id", "", 0.0, 19999.0}}, {"user"}},  // the interleaved head
  };
  for (const Case& c : cases) {
    testkit::QuerySpec spec;
    spec.has_where = !c.where.empty();
    spec.where = c.where;
    spec.group_by = c.group_by;
    spec.aggs = all_kinds;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto d = testkit::differential_check(table, spec, threads);
      EXPECT_FALSE(d.has_value()) << testkit::describe(spec) << ": " << *d;

      // The shard half: one partial merged alone is the single scan.
      spec.threads = threads;
      const warehouse::Query q = testkit::engine_query(table, spec);
      const warehouse::Table run = q.run();
      const warehouse::QueryStats run_stats = q.stats();
      const warehouse::partial::Partial part = q.run_partial("id");
      warehouse::QueryStats merged_stats;
      const warehouse::Table merged = warehouse::partial::merge_partials(
          {&part, 1}, spec.aggs, run.name(), &merged_stats);
      const auto md = testkit::table_diff(merged, run);
      EXPECT_FALSE(md.has_value()) << testkit::describe(spec) << " merged: " << *md;
      EXPECT_EQ(testkit::stats_diff(merged_stats, run_stats), std::nullopt);

      if (&c == &cases.front()) {
        // The table really reaches the edges it is built for.
        EXPECT_GT(part.tuples(), 65536u);
        std::int64_t lo = 0, hi = 0;
        for (const std::int64_t day : part.days) {
          lo = std::min(lo, day);
          hi = std::max(hi, day);
        }
        EXPECT_LE(lo, -(std::int64_t{1} << 46));
        EXPECT_GE(hi, (std::int64_t{1} << 46) - 1);
      }
    }
  }
}

// --- oracle plumbing self-tests -------------------------------------------

TEST(OracleSelfTest, TableDiffDetectsBitDifferences) {
  warehouse::Table a("t", {{"v", warehouse::ColType::kDouble}});
  warehouse::Table b("t", {{"v", warehouse::ColType::kDouble}});
  a.append().set("v", 0.0);
  b.append().set("v", -0.0);
  EXPECT_FALSE(testkit::table_diff(a, a).has_value());
  const auto d = testkit::table_diff(a, b);
  ASSERT_TRUE(d.has_value());  // -0.0 and 0.0 differ by bit pattern
  EXPECT_NE(d->find("v"), std::string::npos);
}

TEST(OracleSelfTest, StatsDiffDetectsFieldDifferences) {
  warehouse::QueryStats a;
  a.rows_scanned = 100;
  warehouse::QueryStats b = a;
  EXPECT_FALSE(testkit::stats_diff(a, b).has_value());
  b.rows_scanned = 99;
  EXPECT_TRUE(testkit::stats_diff(a, b).has_value());
}

// --- metamorphic checks ----------------------------------------------------

// Splitting BETWEEN into GE AND LE must not change results *or* chunk
// accounting: the two formulations prune exactly the same chunks.
TEST(Metamorphic, BetweenEqualsGeAndLeConjunction) {
  const warehouse::Table corpus =
      testkit::make_corpus({.rows = 1000, .chunk_rows = 128, .seed = 42});
  struct Range {
    const char* col;
    double lo, hi;
  };
  const Range ranges[] = {
      {"value", -3.0, 4.5},
      {"value", 4.5, -3.0},  // inverted: both forms must match zero rows
      {"weight", 0.0, 2.0},
      {"big", -5e5, 5e5},
      {"day", 2.0, 5.0},
  };
  for (const Range& rg : ranges) {
    testkit::QuerySpec between;
    between.has_where = true;
    between.where.push_back({testkit::PredOp::kBetween, rg.col, "", rg.lo, rg.hi});
    testkit::QuerySpec split = between;
    split.where.clear();
    split.where.push_back({testkit::PredOp::kGe, rg.col, "", rg.lo, 0.0});
    split.where.push_back({testkit::PredOp::kLe, rg.col, "", 0.0, rg.hi});
    for (auto* spec : {&between, &split}) {
      spec->group_by = {"user"};
      spec->aggs = {{"value", warehouse::AggKind::kSum, "", ""},
                    {"", warehouse::AggKind::kCount, "", "n"}};
    }
    for (const std::size_t threads : testkit::kDiffThreadCounts) {
      between.threads = split.threads = threads;
      const testkit::QueryRun a = testkit::run_engine(corpus, between);
      const testkit::QueryRun b = testkit::run_engine(corpus, split);
      if (auto d = testkit::table_diff(a.table, b.table)) {
        ADD_FAILURE() << rg.col << " [" << rg.lo << ", " << rg.hi << "]: " << *d;
      }
      if (auto d = testkit::stats_diff(a.stats, b.stats)) {
        ADD_FAILURE() << rg.col << " [" << rg.lo << ", " << rg.hi << "] stats: " << *d;
      }
    }
  }
}

// Permuting the group-by key list relabels columns but must not change
// which rows form a group, the group emission order (first match) or any
// aggregate bit pattern.
TEST(Metamorphic, GroupKeyPermutationPreservesGroups) {
  const warehouse::Table corpus =
      testkit::make_corpus({.rows = 1000, .chunk_rows = 256, .seed = 7});
  testkit::QuerySpec spec;
  spec.has_where = true;
  spec.where.push_back({testkit::PredOp::kGe, "value", "", -5.0, 0.0});
  spec.group_by = {"user", "day", "app"};
  spec.aggs = {{"value", warehouse::AggKind::kSum, "", ""},
               {"value", warehouse::AggKind::kMin, "", ""},
               {"", warehouse::AggKind::kCount, "", "n"}};
  testkit::QuerySpec permuted = spec;
  permuted.group_by = {"day", "app", "user"};

  const warehouse::Table a = testkit::run_engine(corpus, spec).table;
  const warehouse::Table b = testkit::run_engine(corpus, permuted).table;
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    EXPECT_EQ(a.col("user").as_string(r), b.col("user").as_string(r)) << "row " << r;
    EXPECT_EQ(a.col("day").as_int64(r), b.col("day").as_int64(r)) << "row " << r;
    EXPECT_EQ(a.col("app").as_string(r), b.col("app").as_string(r)) << "row " << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.col("value_sum").as_double(r)),
              std::bit_cast<std::uint64_t>(b.col("value_sum").as_double(r)))
        << "row " << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.col("value_min").as_double(r)),
              std::bit_cast<std::uint64_t>(b.col("value_min").as_double(r)))
        << "row " << r;
    EXPECT_EQ(a.col("n").as_int64(r), b.col("n").as_int64(r)) << "row " << r;
  }
}

// Shuffling the corpus row order (the storage analogue: concatenating
// partitions in any order) must not change order-insensitive aggregates.
// Sums are excluded — FP addition is order-sensitive by design and the
// engine's determinism contract fixes the order, not the shuffle's.
TEST(Metamorphic, RowOrderShufflePreservesOrderInsensitiveAggregates) {
  const warehouse::Table corpus =
      testkit::make_corpus({.rows = 1000, .chunk_rows = 128, .seed = 3});
  warehouse::Table shuffled("corpus", {{"user", warehouse::ColType::kString},
                                       {"app", warehouse::ColType::kString},
                                       {"day", warehouse::ColType::kInt64},
                                       {"big", warehouse::ColType::kInt64},
                                       {"value", warehouse::ColType::kDouble},
                                       {"weight", warehouse::ColType::kDouble}});
  std::vector<std::size_t> perm(corpus.rows());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  common::RngStream g(3, "testkit.shuffle", 0);
  std::shuffle(perm.begin(), perm.end(), g.engine());
  for (const std::size_t r : perm) {
    shuffled.append()
        .set("user", std::string(corpus.col("user").as_string(r)))
        .set("app", std::string(corpus.col("app").as_string(r)))
        .set("day", corpus.col("day").as_int64(r))
        .set("big", corpus.col("big").as_int64(r))
        .set("value", corpus.col("value").as_double(r))
        .set("weight", corpus.col("weight").as_double(r));
  }
  shuffled.rebuild_zone_index(128);

  testkit::QuerySpec spec;
  spec.has_where = true;
  spec.where.push_back({testkit::PredOp::kLe, "value", "", 0.0, 6.0});
  spec.group_by = {"user", "day"};
  spec.aggs = {{"value", warehouse::AggKind::kMin, "", ""},
               {"value", warehouse::AggKind::kMax, "", ""},
               {"", warehouse::AggKind::kCount, "", "n"}};

  // Group emission order depends on row order; compare as sorted key sets.
  struct GroupRow {
    std::string user;
    std::int64_t day;
    std::uint64_t mn, mx;
    std::int64_t n;
    auto operator<=>(const GroupRow&) const = default;
  };
  const auto collect = [&](const warehouse::Table& t) {
    std::vector<GroupRow> rows;
    const warehouse::Table out = testkit::run_engine(t, spec).table;
    for (std::size_t r = 0; r < out.rows(); ++r) {
      rows.push_back({std::string(out.col("user").as_string(r)),
                      out.col("day").as_int64(r),
                      std::bit_cast<std::uint64_t>(out.col("value_min").as_double(r)),
                      std::bit_cast<std::uint64_t>(out.col("value_max").as_double(r)),
                      out.col("n").as_int64(r)});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(collect(corpus), collect(shuffled));
}

// --- replay seed files -----------------------------------------------------

TEST(Replay, SeedFileRoundTrip) {
  const fs::path path = fs::temp_directory_path() / "supremm_testkit_roundtrip_seed.txt";
  testkit::write_seed_file(path.string(), "query",
                           {{"seed", "123"}, {"keep_terms", "0,2,5"}, {"empty", ""}},
                           {"a comment"});
  const testkit::SeedFile sf = testkit::read_seed_file(path.string());
  EXPECT_EQ(sf.field("mode"), "query");
  EXPECT_EQ(sf.field_u64("seed"), 123u);
  EXPECT_EQ(testkit::decode_index_list(sf.field("keep_terms")),
            (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_TRUE(testkit::decode_index_list(sf.field("empty")).empty());
  ASSERT_EQ(sf.comments.size(), 1u);
  EXPECT_EQ(sf.comments[0], "a comment");
  EXPECT_THROW((void)sf.field("absent"), common::ParseError);
  fs::remove(path);
}

TEST(Replay, ManualSeedFileReplaysCleanly) {
  // A seed file keeping the full spec of generated query #7 must re-derive
  // and re-check it — and, since the engine agrees with the oracle, pass.
  const std::uint64_t seed = 20130313;
  const testkit::QuerySpec spec = testkit::make_query_spec(seed, 7);
  std::vector<std::size_t> terms(spec.where.size()), aggs(spec.aggs.size()),
      keys(spec.group_by.size());
  for (std::size_t i = 0; i < terms.size(); ++i) terms[i] = i;
  for (std::size_t i = 0; i < aggs.size(); ++i) aggs[i] = i;
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const fs::path path = fs::temp_directory_path() / "supremm_testkit_manual_seed.txt";
  testkit::write_seed_file(path.string(), "query",
                           {{"seed", std::to_string(seed)},
                            {"query", "7"},
                            {"corpus_rows", "256"},
                            {"corpus_chunk_rows", "256"},
                            {"keep_terms", testkit::encode_index_list(terms)},
                            {"keep_aggs", testkit::encode_index_list(aggs)},
                            {"keep_keys", testkit::encode_index_list(keys)}},
                           {"spec: " + testkit::describe(spec)});
  const auto d = testkit::replay_query_file(path.string());
  EXPECT_FALSE(d.has_value()) << *d;
  fs::remove(path);
}

TEST(Replay, MalformedSeedFileThrows) {
  const fs::path path = fs::temp_directory_path() / "supremm_testkit_bad_seed.txt";
  testkit::write_seed_file(path.string(), "fuzz", {{"seed", "1"}}, {});
  EXPECT_THROW((void)testkit::replay_query_file(path.string()), common::ParseError);
  fs::remove(path);
}

TEST(Replay, EnvSeedFile) {
  const char* path = std::getenv("SUPREMM_TESTKIT_REPLAY");
  if (path == nullptr) GTEST_SKIP() << "SUPREMM_TESTKIT_REPLAY not set";
  const auto d = testkit::replay_query_file(path);
  EXPECT_FALSE(d.has_value()) << "still diverges: " << *d;
}

}  // namespace
