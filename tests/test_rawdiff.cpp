// Raw-parse differential suite (ctest label: fuzz; DESIGN.md "Flat raw
// decode").
//
// The flat decoder (taccstats::parse_raw / parse_raw_salvage) must agree
// with the reference parser in testkit on every input: the same samples
// after to_samples(), the same quarantines (source, line, reason, detail),
// the same missing_magic flag and the same strict ParseError text. Inputs
// are windows of the shared tiny simulation's raw files, damaged by the
// faultsim profiles and by byte edits aimed at the grammar.
//
// Environment knobs:
//   SUPREMM_TESTKIT_LONG=N      run N cases instead of the smoke 400
//   SUPREMM_TESTKIT_SEED_DIR=D  dump replay seed files into D (default ".")
//   SUPREMM_TESTKIT_REPLAY=F    additionally re-run the dumped seed file F
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim_fixture.h"
#include "testkit/rawdiff.h"

namespace {

using namespace supremm;
namespace ts = supremm::taccstats;

testkit::RawDiffConfig make_config() {
  testkit::RawDiffConfig cfg;
  cfg.corpus = supremm::testing::tiny_ranger_run().files;
  cfg.iterations = 400;  // smoke floor; the long run is opt-in
  if (const char* n = std::getenv("SUPREMM_TESTKIT_LONG")) {
    cfg.iterations = static_cast<std::size_t>(std::strtoull(n, nullptr, 10));
  }
  if (const char* d = std::getenv("SUPREMM_TESTKIT_SEED_DIR")) cfg.seed_dir = d;
  return cfg;
}

TEST(RawDiff, FlatDecoderMatchesReference) {
  const testkit::RawDiffConfig cfg = make_config();
  const testkit::RawDiffReport rep = testkit::run_raw_diff(cfg);
  EXPECT_EQ(rep.iterations, cfg.iterations);
  // The case mix reaches both outcomes: files strict parsing rejects, and
  // damage salvage quarantines line by line.
  if (cfg.iterations >= 100) {
    EXPECT_GT(rep.strict_rejects, 0u);
    EXPECT_LT(rep.strict_rejects, rep.iterations);
    EXPECT_GT(rep.quarantined, 0u);
  }
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    ADD_FAILURE() << "divergence (replay: SUPREMM_TESTKIT_REPLAY=" << rep.seed_files[i]
                  << " build/tests/test_rawdiff): " << rep.failures[i];
  }
}

// Hand-written corners of the grammar, each checked against the reference.
TEST(RawDiff, GrammarCorners) {
  const std::string head = "$tacc_stats 2.0\n$hostname h\n!cpu user;E idle;E\n";
  const std::string pad63(61, '0');
  const std::string pad64(62, '0');
  const std::string cases[] = {
      head + "100 1 begin\ncpu 0 1 2\n",
      head + "100 1 begin\ncpu 0 -1 2\n",
      head + "100 1 begin\ncpu 0 +5 2\n",
      head + "100 1 begin\ncpu 0 -0 2\n",
      head + "100 1 begin\ncpu 0 " + pad63 + "12 2\n",
      head + "100 1 begin\ncpu 0 " + pad64 + "12 2\n",
      head + "100 1 begin\ncpu 0 18446744073709551615 2\n",
      head + "100 1 begin\ncpu 0 18446744073709551616 2\n",
      head + "-100 1 begin\ncpu 0 1 2\n+100 1 periodic\n",
      head + "+100 -1 begin\ncpu 0 1 2\n",
      head + "-9223372036854775808 9223372036854775807 end\ncpu 0 1 2\n",
      head + "9223372036854775808 1 end\ncpu 0 1 2\n",
      head + "100 1 begin\r\ncpu\t0 1 2\r\n\n \n\t\ncpu 1 3 4",
      head + "100 1 begin\ncpu 0 1 2\n!mem used;G\nmem - 5\n200 1 end\nmem - 6\n",
      "$tacc_stats 2.0\n!cpu a;E\n!cpu a;E b;E\n100 1 begin\ncpu 0 1\ncpu 1 1 2\n",
      head + "!mem used;G\n100 1 begin\ncpu 0 1 2\nmem - 5\ncpu 1 3 4\nmem - 6\ncpu 2 5 6\n",
      head + "100 1 begin\ngpu 0 1 2\ncpu 0 1 2 3\ncpu 0 x 2\ncpu\n",
      "100 1 begin\ncpu 0 1 2\n$tacc_stats 2.0\n!cpu user;E idle;E\n200 1 end\ncpu 0 1 2\n",
      "",
      "\n\n",
  };
  for (const auto& c : cases) {
    const auto d = testkit::diff_parsers(c, "h/day0");
    EXPECT_FALSE(d.has_value()) << *d << "\ninput:\n" << c;
  }
}

// The numeric limits, pinned on the flat decoder directly (the sign rule
// is pinned in test_faultsim's SalvageReader cases).
TEST(RawDiff, NumericTokenLimits) {
  const std::string head = "$tacc_stats 2.0\n!cpu user;E idle;E\n100 1 begin\n";
  const auto bad_value = [&](const std::string& v) {
    const auto sr = ts::parse_raw_salvage(head + "cpu 0 " + v + " 2\n", "h/day0");
    return sr.quarantined.size() == 1 &&
           sr.quarantined[0].reason == ts::QuarantineReason::kBadValue;
  };
  EXPECT_TRUE(bad_value(std::string(64, '0')));
  EXPECT_TRUE(bad_value("18446744073709551616"));
  EXPECT_FALSE(bad_value(std::string(63, '0')));
  EXPECT_FALSE(bad_value("18446744073709551615"));
  const auto pf = ts::parse_raw(head + "cpu 0 " + std::string(43, '0') +
                                "18446744073709551615 7\n");
  ASSERT_EQ(pf.values.size(), 2u);
  EXPECT_EQ(pf.values[0], 18446744073709551615ULL);
  // Header times keep their sign.
  const auto neg = ts::parse_raw("$tacc_stats 2.0\n-600 +7 begin\n");
  ASSERT_EQ(neg.samples.size(), 1u);
  EXPECT_EQ(neg.samples[0].time, -600);
  EXPECT_EQ(neg.samples[0].job_id, 7);
}

// Interleaved type rows group into one record per type, in first-appearance
// order, and rows validate against schemas declared after the first sample
// while the committed registry keeps only the ones declared before it.
TEST(RawDiff, FlatLayoutGroupsRecordsAndCommitsEarlySchemas) {
  const auto pf = ts::parse_raw(
      "$tacc_stats 2.0\n!cpu a;E\n!mem b;G\n100 1 begin\ncpu 0 1\nmem - 2\ncpu 1 3\n"
      "!ib x;E\nib mlx 4\n");
  EXPECT_EQ(pf.committed, 2u);
  EXPECT_EQ(pf.schemas.size(), 3u);
  ASSERT_EQ(pf.samples.size(), 1u);
  ASSERT_EQ(pf.records.size(), 3u);
  EXPECT_EQ(pf.schemas[pf.records[0].schema].type, "cpu");
  EXPECT_EQ(pf.records[0].row_end - pf.records[0].row_begin, 2u);
  const auto samples = ts::to_samples(pf);
  ASSERT_EQ(samples[0].records.size(), 3u);
  EXPECT_EQ(samples[0].records[0].rows[1].device, "1");
  EXPECT_EQ(samples[0].records[0].rows[1].values[0], 3u);
  EXPECT_EQ(samples[0].records[1].type, "mem");
  EXPECT_EQ(samples[0].records[2].type, "ib");
  EXPECT_EQ(pf.registry().all().size(), 2u);
}

TEST(RawDiffReplay, EnvSeedFile) {
  const char* path = std::getenv("SUPREMM_TESTKIT_REPLAY");
  if (path == nullptr) GTEST_SKIP() << "SUPREMM_TESTKIT_REPLAY not set";
  const auto d = testkit::replay_raw_diff_file(make_config(), path);
  EXPECT_FALSE(d.has_value()) << "still diverges: " << *d;
}

}  // namespace
