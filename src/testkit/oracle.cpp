#include "testkit/oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.h"

namespace supremm::testkit {

using warehouse::AggKind;
using warehouse::AggSpec;
using warehouse::ColType;
using warehouse::Column;
using warehouse::QueryStats;
using warehouse::Table;

namespace {

// The two layout constants of the public execution contract (DESIGN.md §11):
// the scan-chunk grid used for stats when the table carries no zone index,
// and the canonical segment grid laid over the ordered match list. These are
// contract values, not implementation details borrowed from the engine — a
// change to either over there is a breaking change the oracle must flag.
constexpr std::size_t kExecChunkRows = 4096;
constexpr std::size_t kSegmentRows = 8192;

// Part of the contract: a NaN-valued sum/mean is emitted as the canonical
// positive quiet NaN, because which of several accumulated NaN payloads
// survives `acc += v` is an instruction-operand-order artifact the compiler
// may legally flip between builds of the same source.
double canon_nan(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

std::string default_name(const AggSpec& a) {
  switch (a.kind) {
    case AggKind::kSum:
      return a.column + "_sum";
    case AggKind::kMean:
      return a.column + "_mean";
    case AggKind::kWeightedMean:
      return a.column + "_wmean";
    case AggKind::kMax:
      return a.column + "_max";
    case AggKind::kMin:
      return a.column + "_min";
    case AggKind::kCount:
      return "count";
  }
  return a.column;
}

std::string agg_output_name(const AggSpec& a) {
  return a.as.empty() ? default_name(a) : a.as;
}

// Same accumulator the contract defines: plain += / min / max per value
// within a segment, and the identical operations again when folding segment
// partials. std::min/std::max return the first argument when the second is
// NaN, so NaN values poison sums but never the min/max fields.
//
// Ungrouped queries (empty group_by) are the exception: the contract routes
// element j of a segment to accumulator lane j % 8 and folds the lanes with
// the fixed pairwise trees below (DESIGN.md §15) — the order a width-4
// vector unit with two accumulators produces. The oracle implements that
// scheme here, independently of the engine's kernels.
struct AggState {
  double sum = 0.0;
  double wsum = 0.0;
  double wvsum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  std::int64_t n = 0;
};

void merge_state(AggState& into, const AggState& from) {
  into.sum += from.sum;
  into.wsum += from.wsum;
  into.wvsum += from.wvsum;
  into.mn = std::min(into.mn, from.mn);
  into.mx = std::max(into.mx, from.mx);
  into.n += from.n;
}

constexpr std::size_t kLanes = 8;

// The canonical lane folds: lane k joins lane k+4, then k+2, then the final
// pair. Min/max ties (and only ties — lanes never hold NaN) resolve to the
// second operand, the minpd/maxpd convention the contract fixes.
double fold8_sum(const double* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

double fold8_min(const double* l) {
  const auto m = [](double a, double b) { return a < b ? a : b; };
  return m(m(m(l[0], l[4]), m(l[2], l[6])), m(m(l[1], l[5]), m(l[3], l[7])));
}

double fold8_max(const double* l) {
  const auto m = [](double a, double b) { return a > b ? a : b; };
  return m(m(m(l[0], l[4]), m(l[2], l[6])), m(m(l[1], l[5]), m(l[3], l[7])));
}

bool term_matches(const Table& t, const PredTerm& term, std::size_t r) {
  switch (term.op) {
    case PredOp::kEq:
      return t.col(term.column).as_string(r) == term.value;
    case PredOp::kGe:
      return t.col(term.column).as_double(r) >= term.lo;
    case PredOp::kLe:
      return t.col(term.column).as_double(r) <= term.hi;
    case PredOp::kBetween: {
      const double v = t.col(term.column).as_double(r);
      return v >= term.lo && v <= term.hi;
    }
  }
  return false;
}

bool row_matches(const Table& t, const QuerySpec& spec, std::size_t r) {
  if (!spec.has_where) return true;
  for (const auto& term : spec.where) {
    if (!term_matches(t, term, r)) return false;
  }
  return true;
}

/// Exact bit pattern of one group-key cell, matching the contract: strings
/// group by dictionary code, int64 by raw bits, doubles by bit pattern.
std::uint64_t key_word(const Column& c, std::size_t r) {
  switch (c.type()) {
    case ColType::kString:
      return static_cast<std::uint32_t>(c.code(r));
    case ColType::kInt64:
      return static_cast<std::uint64_t>(c.as_int64(r));
    case ColType::kDouble:
      return std::bit_cast<std::uint64_t>(c.as_double(r));
  }
  return 0;
}

/// A prune conjunct derived from the spec; mirrors the documented zone-map
/// rule without ever reading the table's ZoneIndex *ranges* — the oracle
/// recomputes chunk min/max from the rows so a stale or miscomputed zone map
/// in the engine shows up as a stats or result divergence.
struct PruneTest {
  std::string column;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool fail_all = false;  // equality literal absent from the whole column
};

/// Chunk min/max over [lo_row, hi_row): NaN excluded; a chunk with no
/// finite-comparable value keeps the default [0, 0] range — the same
/// definition the zone index documents.
void chunk_range(const Column& c, std::size_t lo_row, std::size_t hi_row, double& lo,
                 double& hi) {
  lo = 0.0;
  hi = 0.0;
  bool seen = false;
  for (std::size_t r = lo_row; r < hi_row; ++r) {
    double v = 0.0;
    switch (c.type()) {
      case ColType::kDouble:
        v = c.as_double(r);
        break;
      case ColType::kInt64:
        v = static_cast<double>(c.as_int64(r));
        break;
      case ColType::kString:
        v = static_cast<double>(c.code(r));
        break;
    }
    if (v != v) continue;  // NaN
    if (!seen || v < lo) lo = v;
    if (!seen || v > hi) hi = v;
    seen = true;
  }
}

// --- time-partitioned contract mirror (DESIGN.md §16) ----------------------
// When a table declares a time partition, the contract replaces the segment
// grid: values accumulate sequentially in match order into micro-cells keyed
// by (group keys, partition subkeys, end-day); per (group, subkey tuple) the
// day cells fold day → week → month → quarter → total in ascending-day
// order; sub-tuple totals then merge into their group in first-seen order.
// The oracle mirrors that naively and independently of the engine (and of
// warehouse/aggstate.h): its own calendar math, its own hierarchical fold.
constexpr std::int64_t kDaySeconds = 86400;

std::int64_t fdiv(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

// Day index of an interval END: day D covers end in (D*86400, (D+1)*86400].
std::int64_t oracle_end_day(std::int64_t end) { return fdiv(end - 1, kDaySeconds); }

using StateVec = std::vector<AggState>;

// Left-fold children (ascending bucket order, `ratio` children per parent)
// into parent buckets, keeping ascending parent order.
std::vector<std::pair<std::int64_t, StateVec>> fold_up(
    const std::vector<std::pair<std::int64_t, StateVec>>& children, std::int64_t ratio,
    std::size_t naggs) {
  std::vector<std::pair<std::int64_t, StateVec>> parents;
  for (const auto& [idx, st] : children) {
    const std::int64_t p = fdiv(idx, ratio);
    if (parents.empty() || parents.back().first != p) parents.emplace_back(p, StateVec(naggs));
    for (std::size_t a = 0; a < naggs; ++a) merge_state(parents.back().second[a], st[a]);
  }
  return parents;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v << " (0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ")";
  return os.str();
}

}  // namespace

warehouse::Query engine_query(const Table& table, const QuerySpec& spec) {
  warehouse::Query q(table);
  if (spec.has_where) {
    if (spec.opaque) {
      // Opaque closure: same row logic, but the engine sees no bounds — it
      // must fall back to per-row closure evaluation with no pruning.
      auto terms = spec.where;
      q.where(warehouse::RowPredicate([terms](const Table& t, std::size_t r) {
        for (const auto& term : terms) {
          if (!term_matches(t, term, r)) return false;
        }
        return true;
      }));
    } else {
      std::vector<warehouse::RowPredicate> preds;
      preds.reserve(spec.where.size());
      for (const auto& term : spec.where) {
        switch (term.op) {
          case PredOp::kEq:
            preds.push_back(warehouse::eq(term.column, term.value));
            break;
          case PredOp::kGe:
            preds.push_back(warehouse::ge(term.column, term.lo));
            break;
          case PredOp::kLe:
            preds.push_back(warehouse::le(term.column, term.hi));
            break;
          case PredOp::kBetween:
            preds.push_back(warehouse::between(term.column, term.lo, term.hi));
            break;
        }
      }
      if (preds.size() == 1) {
        q.where(std::move(preds.front()));
      } else {
        q.where(warehouse::all_of(std::move(preds)));
      }
    }
  }
  q.group_by(spec.group_by).aggregate(spec.aggs).threads(spec.threads);
  return q;
}

QueryRun run_engine(const Table& table, const QuerySpec& spec) {
  const warehouse::Query q = engine_query(table, spec);
  QueryRun run{q.run(), q.stats()};
  return run;
}

QueryRun run_oracle(const Table& table, const QuerySpec& spec) {
  const std::size_t nrows = table.rows();

  // --- matches: one honest pass over every row ---------------------------
  // Deliberately ignores pruning: if the engine wrongly skips a chunk that
  // holds a matching row, its result diverges from this list.
  std::vector<std::size_t> matches;
  for (std::size_t r = 0; r < nrows; ++r) {
    if (row_matches(table, spec, r)) matches.push_back(r);
  }

  // --- stats: predicted from the documented accounting rules -------------
  QueryStats stats;
  const bool have_pred = spec.has_where;
  const bool have_bounds = have_pred && !spec.opaque && !spec.where.empty();
  const warehouse::ZoneIndex* zi = table.zone_index();
  const bool prune = have_bounds && zi != nullptr && zi->chunks > 0;
  if (!have_pred) {
    stats.rows_scanned = nrows;
  } else {
    std::vector<PruneTest> tests;
    if (prune) {
      for (const auto& term : spec.where) {
        PruneTest t;
        t.column = term.column;
        switch (term.op) {
          case PredOp::kEq: {
            if (const auto code = table.col(term.column).find_code(term.value)) {
              t.lo = t.hi = static_cast<double>(*code);
            } else {
              t.fail_all = true;
            }
            break;
          }
          case PredOp::kGe:
            t.lo = term.lo;
            break;
          case PredOp::kLe:
            t.hi = term.hi;
            break;
          case PredOp::kBetween:
            t.lo = term.lo;
            t.hi = term.hi;
            break;
        }
        tests.push_back(std::move(t));
      }
      stats.chunks_total = zi->chunks;
    }
    const std::size_t chunk_rows = prune ? zi->chunk_rows : kExecChunkRows;
    const std::size_t nchunks = nrows == 0 ? 0 : (nrows + chunk_rows - 1) / chunk_rows;
    for (std::size_t ch = 0; ch < nchunks; ++ch) {
      const std::size_t begin = ch * chunk_rows;
      const std::size_t end = std::min(nrows, begin + chunk_rows);
      bool pruned = false;
      for (const auto& t : tests) {
        double lo = 0.0;
        double hi = 0.0;
        chunk_range(table.col(t.column), begin, end, lo, hi);
        if (t.fail_all || hi < t.lo || lo > t.hi) {
          pruned = true;
          break;
        }
      }
      if (pruned) {
        ++stats.chunks_pruned;
      } else {
        stats.rows_scanned += end - begin;
      }
    }
  }
  stats.rows_matched = matches.size();

  // --- aggregation ------------------------------------------------------
  const std::size_t naggs = spec.aggs.size();
  const std::size_t total = matches.size();
  std::vector<std::size_t> example_row;  // first-seen group order
  std::vector<AggState> states;          // [group * naggs + agg]
  using Key = std::vector<std::uint64_t>;

  if (!table.time_partition().empty()) {
    // Time-partitioned contract mirror: cells, then per-(group, sub-tuple)
    // hierarchical time fold, then cross-dimension merges, outermost last.
    const Column& tp = table.col(table.time_partition());
    std::vector<std::string> extras;  // subkeys that are not group keys
    for (const auto& s : table.time_partition_subkeys()) {
      if (std::find(spec.group_by.begin(), spec.group_by.end(), s) == spec.group_by.end()) {
        extras.push_back(s);
      }
    }
    struct Cell {
      std::size_t example_row;
      std::int64_t day;
      StateVec states;
    };
    std::map<Key, std::size_t> cell_lookup;
    std::vector<Cell> cells;  // first-seen order
    for (const std::size_t r : matches) {
      Key key;
      key.reserve(spec.group_by.size() + extras.size() + 1);
      for (const auto& k : spec.group_by) key.push_back(key_word(table.col(k), r));
      for (const auto& k : extras) key.push_back(key_word(table.col(k), r));
      const std::int64_t day = oracle_end_day(tp.as_int64(r));
      key.push_back(static_cast<std::uint64_t>(day));
      auto [it, inserted] = cell_lookup.emplace(std::move(key), cells.size());
      if (inserted) cells.push_back(Cell{r, day, StateVec(naggs)});
      AggState* st = cells[it->second].states.data();
      for (std::size_t a = 0; a < naggs; ++a) {
        const AggSpec& agg = spec.aggs[a];
        AggState& s = st[a];
        ++s.n;
        if (agg.kind == AggKind::kCount) continue;
        const double v = table.col(agg.column).as_double(r);
        s.sum += v;
        s.mn = std::min(s.mn, v);
        s.mx = std::max(s.mx, v);
        if (agg.kind == AggKind::kWeightedMean) {
          const double w = table.col(agg.weight).as_double(r);
          s.wsum += w;
          s.wvsum += w * v;
        }
      }
    }

    // Bucket cells into groups and, per group, into sub-tuples (both in
    // first-seen cell order).
    std::map<Key, std::size_t> group_lookup;
    std::vector<std::vector<std::size_t>> group_subs;
    std::map<Key, std::size_t> sub_lookup;
    std::vector<std::vector<std::size_t>> sub_cells;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t r = cells[c].example_row;
      Key gkey;
      for (const auto& k : spec.group_by) gkey.push_back(key_word(table.col(k), r));
      Key skey = gkey;
      for (const auto& k : extras) skey.push_back(key_word(table.col(k), r));
      auto [git, ginserted] = group_lookup.emplace(std::move(gkey), example_row.size());
      if (ginserted) {
        example_row.push_back(r);
        group_subs.emplace_back();
      }
      auto [sit, sinserted] = sub_lookup.emplace(std::move(skey), sub_cells.size());
      if (sinserted) {
        sub_cells.emplace_back();
        group_subs[git->second].push_back(sit->second);
      }
      sub_cells[sit->second].push_back(c);
    }

    // Per sub-tuple: day cells ascending → weeks → months → quarters → total.
    std::vector<StateVec> sub_totals(sub_cells.size());
    for (std::size_t s = 0; s < sub_cells.size(); ++s) {
      std::vector<std::size_t>& cs = sub_cells[s];
      std::sort(cs.begin(), cs.end(), [&cells](std::size_t a, std::size_t b) {
        return cells[a].day < cells[b].day;
      });
      std::vector<std::pair<std::int64_t, StateVec>> days;
      days.reserve(cs.size());
      for (const std::size_t c : cs) days.emplace_back(cells[c].day, cells[c].states);
      const auto weeks = fold_up(days, 7, naggs);
      const auto months = fold_up(weeks, 4, naggs);
      const auto quarters = fold_up(months, 3, naggs);
      StateVec& tot = sub_totals[s];
      tot.assign(naggs, AggState{});
      for (const auto& [qi, st] : quarters) {
        for (std::size_t a = 0; a < naggs; ++a) merge_state(tot[a], st[a]);
      }
    }
    states.resize(example_row.size() * naggs);
    for (std::size_t g = 0; g < group_subs.size(); ++g) {
      for (const std::size_t s : group_subs[g]) {
        for (std::size_t a = 0; a < naggs; ++a) {
          merge_state(states[g * naggs + a], sub_totals[s][a]);
        }
      }
    }
  } else {
  // --- aggregation over the canonical segment grid -----------------------
  const std::size_t nsegs = total == 0 ? 0 : (total + kSegmentRows - 1) / kSegmentRows;

  struct Partial {
    std::map<Key, std::size_t> lookup;
    std::vector<Key> keys;                 // insertion order
    std::vector<std::size_t> example_row;  // first matching row per group
    std::vector<AggState> states;          // [group * naggs + agg]
  };

  std::vector<Partial> partials(nsegs);
  for (std::size_t seg = 0; seg < nsegs; ++seg) {
    Partial& part = partials[seg];
    const std::size_t begin = seg * kSegmentRows;
    const std::size_t end = std::min(total, begin + kSegmentRows);
    if (spec.group_by.empty()) {
      // Ungrouped: the 8-lane contract. One group per segment; each agg
      // accumulates per lane and folds once, touching only the fields its
      // kind emits (the rest stay at their merge-neutral defaults).
      const std::size_t len = end - begin;
      part.lookup.emplace(Key{}, 0);
      part.keys.emplace_back();
      part.example_row.push_back(matches[begin]);
      part.states.resize(naggs);
      for (std::size_t a = 0; a < naggs; ++a) {
        const AggSpec& agg = spec.aggs[a];
        AggState& s = part.states[a];
        s.n = static_cast<std::int64_t>(len);
        if (agg.kind == AggKind::kCount) continue;
        double lane_sum[kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        double lane_w[kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        double lane_wv[kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        double lane_mn[kLanes];
        double lane_mx[kLanes];
        std::fill(std::begin(lane_mn), std::end(lane_mn),
                  std::numeric_limits<double>::infinity());
        std::fill(std::begin(lane_mx), std::end(lane_mx),
                  -std::numeric_limits<double>::infinity());
        for (std::size_t j = 0; j < len; ++j) {
          const std::size_t r = matches[begin + j];
          const double v = table.col(agg.column).as_double(r);
          const std::size_t lane = j % kLanes;
          switch (agg.kind) {
            case AggKind::kSum:
            case AggKind::kMean:
              lane_sum[lane] += v;
              break;
            case AggKind::kMin:
              lane_mn[lane] = v < lane_mn[lane] ? v : lane_mn[lane];
              break;
            case AggKind::kMax:
              lane_mx[lane] = v > lane_mx[lane] ? v : lane_mx[lane];
              break;
            case AggKind::kWeightedMean: {
              const double w = table.col(agg.weight).as_double(r);
              const double t = w * v;
              lane_w[lane] += w;
              lane_wv[lane] += t;
              break;
            }
            case AggKind::kCount:
              break;
          }
        }
        switch (agg.kind) {
          case AggKind::kSum:
          case AggKind::kMean:
            s.sum = fold8_sum(lane_sum);
            break;
          case AggKind::kMin:
            s.mn = fold8_min(lane_mn);
            break;
          case AggKind::kMax:
            s.mx = fold8_max(lane_mx);
            break;
          case AggKind::kWeightedMean:
            s.wsum = fold8_sum(lane_w);
            s.wvsum = fold8_sum(lane_wv);
            break;
          case AggKind::kCount:
            break;
        }
      }
      continue;
    }
    for (std::size_t m = begin; m < end; ++m) {
      const std::size_t r = matches[m];
      Key key;
      key.reserve(spec.group_by.size());
      for (const auto& k : spec.group_by) key.push_back(key_word(table.col(k), r));
      auto [it, inserted] = part.lookup.emplace(std::move(key), part.keys.size());
      if (inserted) {
        part.keys.push_back(it->first);
        part.example_row.push_back(r);
        part.states.resize(part.states.size() + naggs);
      }
      AggState* st = part.states.data() + it->second * naggs;
      for (std::size_t a = 0; a < naggs; ++a) {
        const AggSpec& agg = spec.aggs[a];
        AggState& s = st[a];
        ++s.n;
        if (agg.kind == AggKind::kCount) continue;
        const double v = table.col(agg.column).as_double(r);
        s.sum += v;
        s.mn = std::min(s.mn, v);
        s.mx = std::max(s.mx, v);
        if (agg.kind == AggKind::kWeightedMean) {
          const double w = table.col(agg.weight).as_double(r);
          s.wsum += w;
          s.wvsum += w * v;
        }
      }
    }
  }

  // --- fold segment partials in segment order ----------------------------
  std::map<Key, std::size_t> lookup;
  for (const auto& part : partials) {
    for (std::size_t g = 0; g < part.keys.size(); ++g) {
      auto [it, inserted] = lookup.emplace(part.keys[g], example_row.size());
      if (inserted) {
        example_row.push_back(part.example_row[g]);
        states.resize(states.size() + naggs);
      }
      AggState* into = states.data() + it->second * naggs;
      const AggState* from = part.states.data() + g * naggs;
      for (std::size_t a = 0; a < naggs; ++a) merge_state(into[a], from[a]);
    }
  }
  }  // end canonical segment contract

  // --- emit groups in first-seen order -----------------------------------
  std::vector<std::pair<std::string, ColType>> schema;
  for (const auto& k : spec.group_by) schema.emplace_back(k, table.col(k).type());
  for (const auto& a : spec.aggs) {
    schema.emplace_back(agg_output_name(a),
                        a.kind == AggKind::kCount ? ColType::kInt64 : ColType::kDouble);
  }
  Table out(table.name() + "_agg", std::move(schema));
  for (std::size_t g = 0; g < example_row.size(); ++g) {
    auto row = out.append();
    const std::size_t src = example_row[g];
    for (const auto& k : spec.group_by) {
      const Column& c = table.col(k);
      switch (c.type()) {
        case ColType::kString:
          row.set(k, c.as_string(src));
          break;
        case ColType::kInt64:
          row.set(k, c.as_int64(src));
          break;
        case ColType::kDouble:
          row.set(k, c.as_double(src));
          break;
      }
    }
    for (std::size_t a = 0; a < naggs; ++a) {
      const AggSpec& agg = spec.aggs[a];
      const AggState& s = states[g * naggs + a];
      const std::string name = agg_output_name(agg);
      switch (agg.kind) {
        case AggKind::kSum:
          row.set(name, canon_nan(s.sum));
          break;
        case AggKind::kMean:
          row.set(name, s.n > 0 ? canon_nan(s.sum / static_cast<double>(s.n)) : 0.0);
          break;
        case AggKind::kWeightedMean:
          row.set(name, s.wsum > 0.0 ? canon_nan(s.wvsum / s.wsum) : 0.0);
          break;
        case AggKind::kMax:
          row.set(name, s.n > 0 ? s.mx : 0.0);
          break;
        case AggKind::kMin:
          row.set(name, s.n > 0 ? s.mn : 0.0);
          break;
        case AggKind::kCount:
          row.set(name, s.n);
          break;
      }
    }
  }
  return QueryRun{std::move(out), stats};
}

std::optional<std::string> table_diff(const Table& a, const Table& b) {
  if (a.name() != b.name()) {
    return "table name: \"" + a.name() + "\" vs \"" + b.name() + "\"";
  }
  if (a.cols() != b.cols()) {
    return "column count: " + std::to_string(a.cols()) + " vs " + std::to_string(b.cols());
  }
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const Column& ca = a.columns()[c];
    const Column& cb = b.columns()[c];
    if (ca.name() != cb.name()) {
      return "column " + std::to_string(c) + " name: \"" + ca.name() + "\" vs \"" +
             cb.name() + "\"";
    }
    if (ca.type() != cb.type()) {
      return "column \"" + ca.name() + "\" type mismatch";
    }
  }
  if (a.rows() != b.rows()) {
    return "row count: " + std::to_string(a.rows()) + " vs " + std::to_string(b.rows());
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const Column& ca = a.columns()[c];
      const Column& cb = b.columns()[c];
      const std::string at = "row " + std::to_string(r) + " col \"" + ca.name() + "\": ";
      switch (ca.type()) {
        case ColType::kString:
          if (ca.as_string(r) != cb.as_string(r)) {
            return at + "\"" + std::string(ca.as_string(r)) + "\" vs \"" +
                   std::string(cb.as_string(r)) + "\"";
          }
          break;
        case ColType::kInt64:
          if (ca.as_int64(r) != cb.as_int64(r)) {
            return at + std::to_string(ca.as_int64(r)) + " vs " +
                   std::to_string(cb.as_int64(r));
          }
          break;
        case ColType::kDouble:
          if (std::bit_cast<std::uint64_t>(ca.as_double(r)) !=
              std::bit_cast<std::uint64_t>(cb.as_double(r))) {
            return at + fmt_double(ca.as_double(r)) + " vs " + fmt_double(cb.as_double(r));
          }
          break;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> stats_diff(const QueryStats& a, const QueryStats& b) {
  const auto field = [](const char* name, std::size_t x, std::size_t y)
      -> std::optional<std::string> {
    if (x == y) return std::nullopt;
    return std::string(name) + ": " + std::to_string(x) + " vs " + std::to_string(y);
  };
  if (auto d = field("chunks_total", a.chunks_total, b.chunks_total)) return d;
  if (auto d = field("chunks_pruned", a.chunks_pruned, b.chunks_pruned)) return d;
  if (auto d = field("rows_scanned", a.rows_scanned, b.rows_scanned)) return d;
  if (auto d = field("rows_matched", a.rows_matched, b.rows_matched)) return d;
  return std::nullopt;
}

std::optional<std::string> differential_check(const Table& table, const QuerySpec& spec,
                                              std::size_t threads) {
  const QueryRun oracle = run_oracle(table, spec);
  QuerySpec engine_spec = spec;
  engine_spec.threads = threads;
  const QueryRun engine = run_engine(table, engine_spec);
  const std::string ctx = "threads=" + std::to_string(threads) + ": ";
  if (auto d = table_diff(oracle.table, engine.table)) {
    return ctx + "result " + *d + " (oracle vs engine)";
  }
  if (auto d = stats_diff(oracle.stats, engine.stats)) {
    return ctx + "stats " + *d + " (oracle vs engine)";
  }
  return std::nullopt;
}

std::string describe(const QuerySpec& spec) {
  std::ostringstream os;
  os.precision(17);
  if (spec.has_where) {
    os << (spec.opaque ? "where-opaque[" : "where[");
    for (std::size_t i = 0; i < spec.where.size(); ++i) {
      const PredTerm& t = spec.where[i];
      if (i != 0) os << " && ";
      switch (t.op) {
        case PredOp::kEq:
          os << t.column << " == \"" << t.value << "\"";
          break;
        case PredOp::kGe:
          os << t.column << " >= " << t.lo;
          break;
        case PredOp::kLe:
          os << t.column << " <= " << t.hi;
          break;
        case PredOp::kBetween:
          os << t.column << " in [" << t.lo << ", " << t.hi << "]";
          break;
      }
    }
    os << "] ";
  }
  os << "group[";
  for (std::size_t i = 0; i < spec.group_by.size(); ++i) {
    if (i != 0) os << ",";
    os << spec.group_by[i];
  }
  os << "] agg[";
  for (std::size_t i = 0; i < spec.aggs.size(); ++i) {
    const AggSpec& a = spec.aggs[i];
    if (i != 0) os << ",";
    switch (a.kind) {
      case AggKind::kSum:
        os << "sum(" << a.column << ")";
        break;
      case AggKind::kMean:
        os << "mean(" << a.column << ")";
        break;
      case AggKind::kWeightedMean:
        os << "wmean(" << a.column << "," << a.weight << ")";
        break;
      case AggKind::kMax:
        os << "max(" << a.column << ")";
        break;
      case AggKind::kMin:
        os << "min(" << a.column << ")";
        break;
      case AggKind::kCount:
        os << "count()";
        break;
    }
    if (!a.as.empty()) os << " as " << a.as;
  }
  os << "] threads=" << spec.threads;
  return os.str();
}

}  // namespace supremm::testkit
