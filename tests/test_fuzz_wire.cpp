// Fuzz of the federation's partial decoder below the frame CRC (DESIGN.md
// §17): the frame checksum stops random corruption in transit, so these
// inputs go straight to wire::unpack_partial, the way a buggy or hostile
// shard's well-sealed frame would. The inputs are real protocol v3 payloads
// at every fold level, with string, int64 and double key columns: every
// proper prefix, plus seeded mutations aimed at the fields the decoder's own
// checks guard (counts, dictionary sizes, codes, day-end offsets, naggs,
// level and type bytes). Each input must either throw common::ParseError or
// decode to a partial that an independent shape check in this file accepts
// (and that merges without tripping anything but InvalidArgument), and no
// decode may allocate more than a small multiple of its payload
// (alloc_budget.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "archive/partition.h"
#include "archive/tables.h"
#include "common/error.h"
#include "common/rng.h"
#include "federation/executor.h"
#include "federation/wire.h"
#include "service/request.h"
#include "testkit/genrequest.h"
#include "warehouse/partial.h"
#include "warehouse/query.h"
#include "warehouse/rollup.h"
#include "alloc_budget.h"

namespace {

namespace ar = supremm::archive;
namespace fed = supremm::federation;
namespace sc = supremm::common;
namespace sv = supremm::service;
namespace tk = supremm::testkit;
namespace wh = supremm::warehouse;
namespace wire = supremm::federation::wire;
using wh::partial::Level;

/// What one decode may allocate: a few bytes of structure per payload byte
/// (a dictionary entry's 4-byte length prefix becomes a 32-byte string
/// object), plus a fixed allowance for the message and error strings.
std::size_t decode_budget(std::size_t payload_bytes) { return 16 * payload_bytes + (64 << 10); }

struct Decoded {
  bool ok = false;
  wire::PartialMsg msg;
};

/// Decode `payload` under allocation accounting. ParseError is the only
/// legal failure; anything else (bad_alloc from the budget included) fails
/// the test.
Decoded decode(std::string_view payload, const std::string& what) {
  Decoded d;
  supremm::testing::arm_alloc_budget(decode_budget(payload.size()));
  try {
    d.msg = wire::unpack_partial(payload);
    d.ok = true;
  } catch (const sc::ParseError&) {
  } catch (const std::bad_alloc&) {
    supremm::testing::disarm_alloc_budget();
    ADD_FAILURE() << what << ": decode of " << payload.size()
                  << " bytes went past its allocation budget";
  } catch (const std::exception& e) {
    supremm::testing::disarm_alloc_budget();
    ADD_FAILURE() << what << ": decode threw a non-ParseError: " << e.what();
  }
  supremm::testing::disarm_alloc_budget();
  return d;
}

/// The partial invariants, restated here independently of
/// partial::shape_error so a decoder that lost one of its checks cannot
/// vouch for itself. Returns the first violation, or "".
std::string independent_shape(const wh::partial::Partial& p) {
  const std::size_t n = p.rank.size();
  if (p.group.size() != p.key_schema.size()) return "group width";
  if (p.level == Level::kGroups && !p.extra.empty()) return "group total with extras";
  for (std::size_t c = 0; c < p.group.size() + p.extra.size(); ++c) {
    const bool is_group = c < p.group.size();
    const auto& col = is_group ? p.group[c] : p.extra[c - p.group.size()];
    if (is_group && col.type != p.key_schema[c].second) return "group column type";
    if (col.type == wh::ColType::kString) {
      if (col.codes.size() != n) return "code count";
      for (const std::uint32_t code : col.codes) {
        if (code >= col.dict.size()) return "code outside its dictionary";
      }
    } else if (col.type == wh::ColType::kInt64 || col.type == wh::ColType::kDouble) {
      if (col.words.size() != n) return "word count";
    } else {
      return "column type";
    }
  }
  if (p.day_end.size() != n) return "day-end count";
  std::uint64_t begin = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t end = p.day_end[t];
    if (end <= begin) return "empty day list";
    if (end > p.days.size()) return "day-end past the days";
    if (p.level != Level::kDays && end - begin != 1) return "folded tuple with several days";
    for (std::uint64_t d = begin + 1; d < end; ++d) {
      if (p.days[d] <= p.days[d - 1]) return "day list not ascending";
    }
    begin = end;
  }
  if (begin != p.days.size()) return "days not covered";
  if (p.states.size() != p.days.size() * p.naggs) return "state count";
  return "";
}

/// A decoded partial must be well-formed, and the coordinator's merge must
/// take it without tripping anything but its documented InvalidArgument (a
/// mutated code can make a group total collide with another).
void expect_sound(const wire::PartialMsg& m, const std::string& what) {
  const std::string bad = independent_shape(m.partial);
  ASSERT_EQ(bad, "") << what;
  EXPECT_EQ(wh::partial::shape_error(m.partial), std::nullopt) << what;
  std::vector<wh::AggSpec> aggs(m.partial.naggs);
  for (auto& a : aggs) a.kind = wh::AggKind::kCount;
  try {
    (void)wh::partial::merge_partials({&m.partial, 1}, aggs, "jobs_agg");
  } catch (const sc::InvalidArgument&) {
  }
}

// --- an independent v3 layout scanner ---------------------------------------

enum class Field { kLevel, kCount, kNaggs, kDictSize, kType, kCode, kDayEnd };

struct Site {
  Field field;
  std::size_t offset;
  std::uint32_t context = 0;  // the dictionary size for codes and dict sizes
};

/// Walks a well-formed v3 partial payload and records where each mutation
/// target lives.
std::vector<Site> scan_layout(std::string_view b) {
  std::size_t pos = 0;
  const auto u32 = [&b, &pos] {
    std::uint32_t v = 0;
    std::memcpy(&v, b.data() + pos, 4);
    pos += 4;
    return v;
  };
  std::vector<Site> sites;
  sites.push_back({Field::kLevel, 1});
  pos = 2 + 4 * 8;  // flags, level, stats
  sites.push_back({Field::kCount, pos});
  const std::uint32_t nkeys = u32();
  for (std::uint32_t k = 0; k < nkeys; ++k) {
    pos += u32();
    sites.push_back({Field::kType, pos});
    pos += 1;
  }
  sites.push_back({Field::kNaggs, pos});
  const std::uint32_t naggs = u32();
  sites.push_back({Field::kCount, pos});
  const std::uint32_t ntuples = u32();
  sites.push_back({Field::kCount, pos});
  const std::uint32_t nextra = u32();
  for (std::uint32_t c = 0; c < nkeys + nextra; ++c) {
    sites.push_back({Field::kType, pos});
    const auto type = static_cast<wh::ColType>(b[pos++]);
    if (type == wh::ColType::kString) {
      const std::size_t at = pos;
      const std::uint32_t ndict = u32();
      sites.push_back({Field::kDictSize, at, ndict});
      for (std::uint32_t i = 0; i < ndict; ++i) pos += u32();
      for (std::uint32_t t = 0; t < ntuples; ++t) {
        sites.push_back({Field::kCode, pos + 4 * std::size_t{t}, ndict});
      }
      pos += 4 * std::size_t{ntuples};
    } else {
      pos += 8 * std::size_t{ntuples};
    }
  }
  pos += 8 * std::size_t{ntuples};  // ranks
  for (std::uint32_t t = 0; t < ntuples; ++t) {
    sites.push_back({Field::kDayEnd, pos + 4 * std::size_t{t}});
  }
  pos += 4 * std::size_t{ntuples};
  sites.push_back({Field::kCount, pos});
  const std::uint32_t ndays = u32();
  pos += std::size_t{ndays} * (8 + 48 * std::size_t{naggs});
  EXPECT_EQ(pos, b.size()) << "layout scanner out of step with the payload";
  return sites;
}

void put_u32(std::string& b, std::size_t at, std::uint32_t v) { std::memcpy(b.data() + at, &v, 4); }

std::uint32_t get_u32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

/// One mutation at `s`: an edge value for the field, a neighbour of its
/// current value, or a flipped bit.
void mutate(std::string& b, const Site& s, sc::RngStream& g) {
  if (s.field == Field::kLevel || s.field == Field::kType) {
    b[s.offset] = static_cast<char>(g.uniform_int(0, 4));
    return;
  }
  const std::uint32_t v = get_u32(b, s.offset);
  const std::uint32_t edges[] = {0u,
                                 1u,
                                 v - 1,
                                 v + 1,
                                 v * 2,
                                 s.context,
                                 s.context + 1,
                                 s.context - 1,
                                 0x7fffffffu,
                                 0xffffffffu,
                                 static_cast<std::uint32_t>(g.uniform_int(0, 0xffffffffLL)),
                                 v ^ (1u << g.uniform_int(0, 31))};
  put_u32(b, s.offset, edges[g.uniform_int(0, std::size(edges) - 1)]);
}

/// Real payloads: rollup-served (string dims, int64 bucket keys, string
/// extras) and raw-scan (double and int64 group keys, string extras), each
/// at all three fold levels, plus an empty answer.
std::vector<std::pair<std::string, std::string>> real_payloads() {
  // Rollup serving on whatever SUPREMM_ROLLUP says: the raw-scan payloads
  // below come from run_partial directly.
  const bool rollups_were_on = wh::rollup::enabled();
  wh::rollup::set_enabled(true);
  const auto jobs = tk::make_rollup_jobs({.rows = 120, .seed = 4242});
  const fed::ShardExecutor ex("shard0", ar::jobs_table(jobs));
  const sv::QuerySpec rolled =
      sv::parse_request("query jobs where cluster = \"c0\" group user, week "
                        "agg count(), sum(node_hours)")
          .query;
  const sv::QuerySpec nothing =
      sv::parse_request("query jobs where cluster = \"nowhere\" group user agg count()").query;

  wh::Table table = ar::jobs_table(jobs);
  wh::rollup::augment_jobs_table(table);
  wh::Query raw(table);
  wh::AggSpec max_mem;
  max_mem.kind = wh::AggKind::kMax;
  max_mem.column = "mem_used_gb";
  raw.where(wh::between("end", 0, 12 * 86400))
      .group_by({"node_hours", "nodes"})
      .aggregate({max_mem});

  std::vector<std::pair<std::string, std::string>> out;
  for (const Level level : {Level::kDays, Level::kTuples, Level::kGroups}) {
    const std::string lv = wh::partial::to_string(level);
    const wire::PartialMsg r = ex.execute(rolled, 0, "job_id", level);
    EXPECT_TRUE(r.rollup_served);
    out.emplace_back("rollup " + lv, wire::pack_partial(r));
    wire::PartialMsg s{false, raw.run_partial("job_id")};
    wh::partial::fold_to(s.partial, level);
    out.emplace_back("raw " + lv, wire::pack_partial(s));
  }
  out.emplace_back("empty", wire::pack_partial(ex.execute(nothing, 0, "job_id")));
  wh::rollup::set_enabled(rollups_were_on);
  for (const auto& [what, payload] : out) {
    const Decoded d = decode(payload, what);
    EXPECT_TRUE(d.ok) << what;
    EXPECT_EQ(independent_shape(d.msg.partial), "") << what;
  }
  return out;
}

}  // namespace

TEST(FederationWireFuzz, EveryProperPrefixIsAParseError) {
  for (const auto& [what, payload] : real_payloads()) {
    SCOPED_TRACE(what);
    EXPECT_GT(payload.size(), 50u);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const Decoded d = decode(std::string_view(payload).substr(0, len), what);
      ASSERT_FALSE(d.ok) << "a " << len << "-byte prefix decoded";
    }
  }
}

TEST(FederationWireFuzz, TargetedMutationsParseErrorOrSoundPartial) {
  constexpr int kMutantsPerPayload = 1500;
  std::size_t rejected = 0, accepted = 0;
  for (const auto& [what, payload] : real_payloads()) {
    const std::vector<Site> sites = scan_layout(payload);
    std::vector<std::vector<Site>> by_field(7);
    for (const Site& s : sites) by_field[static_cast<std::size_t>(s.field)].push_back(s);
    sc::RngStream g(20130527, "fed.partial.mutate." + what, 0);
    for (int i = 0; i < kMutantsPerPayload; ++i) {
      std::string mutant = payload;
      const int edits = static_cast<int>(g.uniform_int(1, 3));
      std::string trace = what + " mutant " + std::to_string(i) + ":";
      for (int e = 0; e < edits; ++e) {
        const std::vector<Site>* pool = nullptr;
        while (pool == nullptr || pool->empty()) {
          pool = &by_field[static_cast<std::size_t>(g.uniform_int(0, 6))];
        }
        const Site& s = (*pool)[static_cast<std::size_t>(
            g.uniform_int(0, static_cast<std::int64_t>(pool->size()) - 1))];
        mutate(mutant, s, g);
        trace += " field " + std::to_string(static_cast<int>(s.field)) + "@" +
                 std::to_string(s.offset);
      }
      const Decoded d = decode(mutant, trace);
      if (!d.ok) {
        ++rejected;
        continue;
      }
      ++accepted;
      expect_sound(d.msg, trace);
    }
  }
  // Both outcomes must actually occur, or the mutations miss their targets.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 100u);
}

TEST(FederationWireFuzz, OutOfDictionaryCodesAndBackwardOffsetsAreRejected) {
  for (const auto& [what, payload] : real_payloads()) {
    SCOPED_TRACE(what);
    for (const Site& s : scan_layout(payload)) {
      std::string mutant = payload;
      if (s.field == Field::kCode) {
        put_u32(mutant, s.offset, s.context);  // one past the dictionary
      } else if (s.field == Field::kDayEnd) {
        put_u32(mutant, s.offset, 0);  // an empty (or backward) day list
      } else {
        continue;
      }
      EXPECT_FALSE(decode(mutant, what).ok) << "offset " << s.offset;
    }
  }
}
