// Unit tests for the common module: time, rng, strings, csv, thread pool,
// ascii tables, checksums.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "common/ascii_table.h"
#include "common/checksum.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/time.h"

namespace sc = supremm::common;

namespace {

/// The textbook bytewise CRC-32 (reflected 0xEDB88320, one 256-entry table,
/// one byte per step): the reference the fast path must equal everywhere.
std::uint32_t reference_crc32(std::string_view data, std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char ch : data) c = table[(c ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace

// --- time -------------------------------------------------------------------

TEST(Time, Constants) {
  EXPECT_EQ(sc::kMinute, 60);
  EXPECT_EQ(sc::kHour, 3600);
  EXPECT_EQ(sc::kDay, 86400);
  EXPECT_EQ(sc::kWeek, 7 * 86400);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(sc::to_hours(sc::kHour), 1.0);
  EXPECT_DOUBLE_EQ(sc::to_hours(90 * sc::kMinute), 1.5);
  EXPECT_DOUBLE_EQ(sc::to_minutes(sc::kHour), 60.0);
}

TEST(Time, DayArithmetic) {
  EXPECT_EQ(sc::day_of(0), 0);
  EXPECT_EQ(sc::day_of(sc::kDay - 1), 0);
  EXPECT_EQ(sc::day_of(sc::kDay), 1);
  EXPECT_EQ(sc::second_of_day(sc::kDay + 42), 42);
}

TEST(Time, WeekdayEpochIsMonday) {
  EXPECT_EQ(sc::weekday_of(0), 0);
  EXPECT_EQ(sc::weekday_of(5 * sc::kDay), 5);  // Saturday
  EXPECT_EQ(sc::weekday_of(7 * sc::kDay), 0);
}

TEST(Time, Format) {
  EXPECT_EQ(sc::format_time(0), "0+00:00:00");
  EXPECT_EQ(sc::format_time(sc::kDay + 3 * sc::kHour + 4 * sc::kMinute + 5), "1+03:04:05");
  EXPECT_EQ(sc::format_duration(3661), "01:01:01");
  EXPECT_EQ(sc::format_duration(-61), "-00:01:01");
}

TEST(TimeAxis, Basics) {
  sc::TimeAxis ax(100, 10, 5);
  EXPECT_EQ(ax.size(), 5u);
  EXPECT_EQ(ax.at(0), 100);
  EXPECT_EQ(ax.at(4), 140);
  EXPECT_EQ(ax.end(), 140);
}

TEST(TimeAxis, IndexAt) {
  sc::TimeAxis ax(100, 10, 5);
  EXPECT_EQ(ax.index_at(99), sc::TimeAxis::npos);
  EXPECT_EQ(ax.index_at(100), 0u);
  EXPECT_EQ(ax.index_at(109), 0u);
  EXPECT_EQ(ax.index_at(110), 1u);
  EXPECT_EQ(ax.index_at(1000), 4u);  // clamped to last
}

TEST(TimeAxis, RejectsBadStep) {
  EXPECT_THROW(sc::TimeAxis(0, 0, 10), supremm::InvalidArgument);
  EXPECT_THROW(sc::TimeAxis(0, -5, 10), supremm::InvalidArgument);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  sc::RngStream a(7, 13);
  sc::RngStream b(7, 13);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentStreamsDiffer) {
  sc::RngStream a(7, 13);
  sc::RngStream b(7, 14);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NamedStreams) {
  sc::RngStream a(7, "workload", 3);
  sc::RngStream b(7, "workload", 3);
  sc::RngStream c(7, "users", 3);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  // Different purpose gives a different stream (overwhelmingly likely).
  sc::RngStream a2(7, "workload", 3);
  EXPECT_NE(a2.uniform(), c.uniform());
}

TEST(Rng, UniformRange) {
  sc::RngStream r(1, 2);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  sc::RngStream r(1, 3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NormalMoments) {
  sc::RngStream r(1, 4);
  double sum = 0, sum2 = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMean) {
  sc::RngStream r(1, 5);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ExponentialRejectsBadMean) {
  sc::RngStream r(1, 6);
  EXPECT_THROW((void)r.exponential(0.0), supremm::InvalidArgument);
  EXPECT_THROW((void)r.exponential(-1.0), supremm::InvalidArgument);
}

TEST(Rng, PoissonMean) {
  sc::RngStream r(1, 7);
  double sum = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(4.5));
  EXPECT_NEAR(sum / n, 4.5, 0.15);
  EXPECT_EQ(r.poisson(0.0), 0);
}

TEST(Rng, ChanceEdgeCases) {
  sc::RngStream r(1, 8);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ParetoSupport) {
  sc::RngStream r(1, 9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
  EXPECT_THROW((void)r.pareto(0.0, 1.0), supremm::InvalidArgument);
}

TEST(Rng, WeightedIndexDistribution) {
  sc::RngStream r(1, 10);
  const std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += r.weighted_index(w) == 1 ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexRejectsEmptyAndZero) {
  sc::RngStream r(1, 11);
  EXPECT_THROW((void)r.weighted_index({}), supremm::InvalidArgument);
  EXPECT_THROW((void)r.weighted_index({0.0, 0.0}), supremm::InvalidArgument);
}

TEST(Rng, ZipfWeights) {
  const auto w = sc::zipf_weights(4, 1.0);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_GT(w[2], w[3]);
}

TEST(Rng, HashStringStable) {
  EXPECT_EQ(sc::hash_string("abc"), sc::hash_string("abc"));
  EXPECT_NE(sc::hash_string("abc"), sc::hash_string("abd"));
}

TEST(Rng, SplitMix64Avalanche) {
  EXPECT_NE(sc::splitmix64(1), sc::splitmix64(2));
  EXPECT_NE(sc::splitmix64(0), 0u);
}

// --- strings ------------------------------------------------------------

TEST(Strings, SplitPreservesEmpty) {
  const auto p = sc::split("a::b:", ':');
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], "a");
  EXPECT_EQ(p[1], "");
  EXPECT_EQ(p[2], "b");
  EXPECT_EQ(p[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto p = sc::split_ws("  a\t b  c ");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], "a");
  EXPECT_EQ(p[2], "c");
  EXPECT_TRUE(sc::split_ws("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(sc::trim("  x "), "x");
  EXPECT_EQ(sc::trim(""), "");
  EXPECT_EQ(sc::trim(" \t\n"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(sc::starts_with("foobar", "foo"));
  EXPECT_FALSE(sc::starts_with("fo", "foo"));
}

TEST(Strings, Join) {
  EXPECT_EQ(sc::join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(sc::join({}, ","), "");
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(sc::parse_i64("-42"), -42);
  EXPECT_EQ(sc::parse_u64("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(sc::parse_f64("2.5e3"), 2500.0);
  EXPECT_EQ(sc::parse_i64("  7 "), 7);  // trimmed
}

TEST(Strings, ParseRejectsGarbage) {
  EXPECT_THROW((void)sc::parse_i64("abc"), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_i64("12x"), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_i64(""), supremm::ParseError);
  EXPECT_THROW((void)sc::parse_f64("1.2.3"), supremm::ParseError);
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(sc::strprintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(sc::strprintf("%.2f", 1.234), "1.23");
}

// --- csv ----------------------------------------------------------------

TEST(Csv, QuotingRules) {
  EXPECT_EQ(sc::csv_quote("plain"), "plain");
  EXPECT_EQ(sc::csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(sc::csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(sc::csv_quote("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RowOutput) {
  std::ostringstream os;
  sc::CsvWriter w(os);
  w.row({"a", "b,c", "d"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

TEST(Csv, IncrementalFields) {
  std::ostringstream os;
  sc::CsvWriter w(os);
  w.field("x").field(2.5).field(static_cast<std::int64_t>(-3));
  w.end_row();
  w.field("next");
  w.end_row();
  EXPECT_EQ(os.str(), "x,2.5,-3\nnext\n");
}

// --- thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  sc::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ParallelForCoversRange) {
  sc::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  sc::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  sc::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ChunkedVariant) {
  sc::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(10, 110, [&total](std::size_t b, std::size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ThreadPool, SizeDefaultsPositive) {
  sc::ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// --- ascii table ------------------------------------------------------------

TEST(AsciiTable, RendersHeaderAndRows) {
  sc::AsciiTable t("Title");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, RightAlignsNumbers) {
  sc::AsciiTable t;
  t.header({"v"});
  t.row({"5"});
  t.row({"500"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("|   5 |"), std::string::npos);
  EXPECT_NE(s.find("| 500 |"), std::string::npos);
}

TEST(AsciiTable, RejectsWidthMismatch) {
  sc::AsciiTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), supremm::InvalidArgument);
}

TEST(AsciiTable, RowBuilder) {
  sc::AsciiTable t;
  t.header({"s", "f", "i"});
  t.add_row().cell("x").cell(3.14159, "%.2f").cell(static_cast<std::int64_t>(9));
  const std::string s = t.to_string();
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
}

TEST(AsciiTable, Bar) {
  EXPECT_EQ(sc::ascii_bar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(sc::ascii_bar(20.0, 10.0, 10).size(), 10u);  // capped
  EXPECT_TRUE(sc::ascii_bar(0.0, 10.0, 10).empty());
  EXPECT_TRUE(sc::ascii_bar(1.0, 0.0, 10).empty());
}

// --- errors -------------------------------------------------------------

// --- checksum ---------------------------------------------------------------
// Every archive block, manifest and wire frame is verified with crc32, so a
// fast path that drifts from the standard values would make every archive
// already on disk unreadable.

TEST(Checksum, Crc32KnownAnswers) {
  EXPECT_EQ(sc::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(sc::crc32(""), 0u);
  EXPECT_EQ(sc::crc32("", 0xdeadbeefu), 0xdeadbeefu);
  EXPECT_EQ(sc::crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
  EXPECT_EQ(sc::crc32(std::string(32, '\0')), 0x190A55ADu);
}

TEST(Checksum, Crc32SeedContinuesAStream) {
  sc::RngStream g(20130527, "crc.stream", 0);
  std::string data(10000, '\0');
  for (char& ch : data) ch = static_cast<char>(g.uniform_int(0, 255));
  const std::uint32_t whole = sc::crc32(data);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{9}, std::size_t{4099},
                                data.size() - 1, data.size()}) {
    const std::string_view v(data);
    EXPECT_EQ(sc::crc32(v.substr(cut), sc::crc32(v.substr(0, cut))), whole) << cut;
  }
  // Many short pieces, each shorter than one 8-byte step.
  std::uint32_t c = 0;
  for (std::size_t at = 0; at < data.size(); at += 5) {
    c = sc::crc32(std::string_view(data).substr(at, 5), c);
  }
  EXPECT_EQ(c, whole);
}

TEST(Checksum, Crc32MatchesBytewiseAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 4099;
  constexpr std::size_t kAlignments = 8;
  sc::RngStream g(20130313, "crc.random", 0);
  std::string buf(kMaxLen + kAlignments, '\0');
  for (char& ch : buf) ch = static_cast<char>(g.uniform_int(0, 255));
  for (std::size_t align = 0; align < kAlignments; ++align) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::string_view v(buf.data() + align, len);
      ASSERT_EQ(sc::crc32(v), reference_crc32(v)) << "len " << len << " align " << align;
    }
  }
  // A non-zero seed takes the same path.
  const std::string_view v(buf.data() + 3, 1000);
  EXPECT_EQ(sc::crc32(v, 0x12345678u), reference_crc32(v, 0x12345678u));
}

TEST(Errors, Hierarchy) {
  EXPECT_THROW(throw supremm::ParseError("x"), supremm::Error);
  EXPECT_THROW(throw supremm::NotFoundError("x"), supremm::Error);
  EXPECT_THROW(throw supremm::InvalidArgument("x"), supremm::Error);
  try {
    throw supremm::ParseError("detail");
  } catch (const supremm::Error& e) {
    EXPECT_NE(std::string(e.what()).find("detail"), std::string::npos);
  }
}
