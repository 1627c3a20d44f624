#include "warehouse/query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/error.h"
#include "common/pool.h"
#include "common/simd.h"
#include "warehouse/aggstate.h"
#include "warehouse/kernels.h"
#include "warehouse/partial.h"
#include "warehouse/tuple_index.h"

namespace supremm::warehouse {

RowPredicate eq(std::string column, std::string value) {
  PredicateBounds b;
  b.column = column;
  b.equals = value;
  auto fn = [column = std::move(column), value = std::move(value)](const Table& t,
                                                                   std::size_t r) {
    return t.col(column).as_string(r) == value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate ge(std::string column, double value) {
  PredicateBounds b;
  b.column = column;
  b.lo = value;
  auto fn = [column = std::move(column), value](const Table& t, std::size_t r) {
    return t.col(column).as_double(r) >= value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate le(std::string column, double value) {
  PredicateBounds b;
  b.column = column;
  b.hi = value;
  auto fn = [column = std::move(column), value](const Table& t, std::size_t r) {
    return t.col(column).as_double(r) <= value;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate between(std::string column, double lo, double hi) {
  PredicateBounds b;
  b.column = column;
  b.lo = lo;
  b.hi = hi;
  auto fn = [column = std::move(column), lo, hi](const Table& t, std::size_t r) {
    const double v = t.col(column).as_double(r);
    return v >= lo && v <= hi;
  };
  return {std::move(fn), {std::move(b)}, /*exact=*/true};
}

RowPredicate all_of(std::vector<RowPredicate> preds) {
  // A conjunction implies every conjunct's bounds, so the combined predicate
  // carries their concatenation; it stays exact only while every conjunct is.
  std::vector<PredicateBounds> bounds;
  bool exact = true;
  for (const auto& p : preds) {
    bounds.insert(bounds.end(), p.bounds().begin(), p.bounds().end());
    exact = exact && p.exact();
  }
  auto fn = [preds = std::move(preds)](const Table& t, std::size_t r) {
    for (const auto& p : preds) {
      if (!p(t, r)) return false;
    }
    return true;
  };
  return {std::move(fn), std::move(bounds), exact};
}

Query& Query::where(RowPredicate pred) {
  pred_ = std::move(pred);
  return *this;
}

Query& Query::group_by(std::vector<std::string> keys) {
  keys_ = std::move(keys);
  return *this;
}

Query& Query::aggregate(std::vector<AggSpec> aggs) {
  aggs_ = std::move(aggs);
  return *this;
}

Query& Query::threads(std::size_t n) {
  threads_ = n;
  return *this;
}

Query& Query::cancel_token(const common::CancelToken* token) {
  cancel_ = token;
  return *this;
}

namespace {

// Execution-chunk size when the table carries no zone index, and the
// canonical partial-aggregation segment length. Both are layout constants:
// the segment grid is laid over the ordered list of *matching* rows, so the
// aggregation arithmetic is independent of the scan chunking, the zone-map
// layout and the thread count.
constexpr std::size_t kExecChunkRows = 4096;
constexpr std::size_t kSegmentRows = 8192;
constexpr std::size_t kMaxGroupKeys = 4;

// canon_nan, default_agg_name, AggState and merge_state moved to
// warehouse/aggstate.h: the rollup layer must replicate this arithmetic
// byte-for-byte to keep materialized answers bit-identical to raw scans.

/// Typed, bounds-check-free view of a numeric column (int64 read as double,
/// matching Column::as_double).
struct NumRef {
  const double* f64 = nullptr;
  const std::int64_t* i64 = nullptr;

  [[nodiscard]] double value(std::size_t r) const {
    return f64 != nullptr ? f64[r] : static_cast<double>(i64[r]);
  }
};

NumRef numeric_ref(const Column& c) {
  if (c.type() == ColType::kString) {
    throw common::InvalidArgument("column " + std::string(c.name()) + " is not numeric");
  }
  NumRef ref;
  if (c.type() == ColType::kDouble) {
    ref.f64 = c.doubles().data();
  } else {
    ref.i64 = c.int64s().data();
  }
  return ref;
}

/// One group key column prepared for packing.
struct KeyRef {
  ColType type = ColType::kDouble;
  const double* f64 = nullptr;
  const std::int64_t* i64 = nullptr;
  const std::int32_t* codes = nullptr;
};

/// Fixed-width packed key tuple: dictionary code, raw int64 bits or the
/// double's exact bit pattern per key — never a decimal rendering, so
/// distinct doubles always land in distinct groups.
struct PackedKey {
  std::array<std::uint64_t, kMaxGroupKeys> w{};
  bool operator==(const PackedKey&) const = default;
};

struct PackedKeyHash {
  std::size_t operator()(const PackedKey& k) const noexcept {
    return static_cast<std::size_t>(hash_words(k.w.data(), k.w.size()));
  }
};

std::uint64_t key_ref_word(const KeyRef& ref, std::uint32_t r) {
  switch (ref.type) {
    case ColType::kString:
      return static_cast<std::uint32_t>(ref.codes[r]);
    case ColType::kInt64:
      return static_cast<std::uint64_t>(ref.i64[r]);
    case ColType::kDouble:
      return std::bit_cast<std::uint64_t>(ref.f64[r]);
  }
  return 0;
}

/// Cancellation safe point. The engine polls at chunk and segment
/// granularity (every kSegmentRows matches at most), never per row.
void poll_cancel(const common::CancelToken* cancel) {
  if (cancel != nullptr && cancel->stop_requested()) {
    throw common::Cancelled("query abandoned at safe point");
  }
}

/// Row of match position `j`; a null match list is the identity.
std::uint32_t row_at(const std::uint32_t* match_rows, std::size_t j) {
  return match_rows != nullptr ? match_rows[j] : static_cast<std::uint32_t>(j);
}

/// Runs `body(begin, end)` over [0, n) in kSegmentRows blocks, polling the
/// cancel token before each block.
template <typename Body>
void for_blocks(std::size_t n, const common::CancelToken* cancel, Body&& body) {
  for (std::size_t begin = 0; begin < n; begin += kSegmentRows) {
    poll_cancel(cancel);
    body(begin, std::min(n, begin + kSegmentRows));
  }
}

/// The kernel table for a run, pinned once. The AVX2 kernels gather through
/// row indices as signed 32-bit lanes, so a table past 2^31 rows takes the
/// scalar table — legal at any time because every tier is bit-identical.
const kernels::KernelTable& run_kernels(std::size_t nrows) {
  return nrows > (std::size_t{1} << 31) ? kernels::table_for(common::simd::Tier::kScalar)
                                        : kernels::active();
}

/// A predicate conjunct compiled against column storage.
struct Kernel {
  NumRef num;                       // numeric range test
  const std::int32_t* codes = nullptr;  // string equality test
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::int32_t eq_code = 0;
  bool impossible = false;  // equality literal absent from the dictionary

  [[nodiscard]] bool pass(std::size_t r) const {
    if (codes != nullptr) return codes[r] == eq_code;
    const double v = num.value(r);
    return v >= lo && v <= hi;
  }
};

/// A conjunct usable for zone-map pruning: chunk survives unless its range
/// is disjoint from [lo, hi] for column `ci`.
struct PruneTest {
  std::size_t ci = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool fail_all = false;  // equality literal absent from the whole table
};

struct ChunkResult {
  std::vector<std::uint32_t> sel;  // matching row indices, ascending
  std::size_t rows_scanned = 0;
  bool pruned = false;
};

struct SegmentPartial {
  std::vector<PackedKey> keys;             // first-seen order
  std::vector<std::uint32_t> example_row;  // first matching row per group
  std::vector<AggState> states;            // [group * naggs + agg]
};

/// Aggregation input for one AggSpec, column refs resolved once per query.
struct AggRef {
  AggKind kind = AggKind::kSum;
  NumRef value;
  NumRef weight;
};

// int64 predicate kernels have no vector tier (no packed i64→f64), so every
// tier shares these scalar loops — same arithmetic as NumRef::value.

std::size_t filter_i64_range(const std::int64_t* v, std::uint32_t begin, std::uint32_t end,
                             double lo, double hi, std::uint32_t* out) {
  std::size_t cnt = 0;
  for (std::uint32_t r = begin; r < end; ++r) {
    const double x = static_cast<double>(v[r]);
    if (x >= lo && x <= hi) out[cnt++] = r;
  }
  return cnt;
}

std::size_t refine_i64_range(const std::int64_t* v, const std::uint32_t* sel, std::size_t n,
                             double lo, double hi, std::uint32_t* out) {
  std::size_t cnt = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t r = sel[j];
    const double x = static_cast<double>(v[r]);
    if (x >= lo && x <= hi) out[cnt++] = r;
  }
  return cnt;
}

void update_aggs(const std::vector<AggRef>& agg_refs, AggState* st, std::uint32_t r) {
  for (std::size_t a = 0; a < agg_refs.size(); ++a) {
    const AggRef& spec = agg_refs[a];
    AggState& s = st[a];
    ++s.n;
    if (spec.kind == AggKind::kCount) continue;
    const double v = spec.value.value(r);
    s.sum += v;
    s.mn = std::min(s.mn, v);
    s.mx = std::max(s.mx, v);
    if (spec.kind == AggKind::kWeightedMean) {
      const double w = spec.weight.value(r);
      s.wsum += w;
      s.wvsum += w * v;
    }
  }
}

/// Weighted-mean lanes when either column is int64: shared scalar fallback,
/// same per-element arithmetic as kernels::dot_lanes (mul, then add).
void dot_lanes_numref(const NumRef& value, const NumRef& weight, const std::uint32_t* rows,
                      std::uint32_t base, std::size_t n, double* wlanes, double* wvlanes) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t r = rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
    const double w = weight.value(r);
    const double t = w * value.value(r);
    wlanes[j % kernels::kLanes] += w;
    wvlanes[j % kernels::kLanes] += t;
  }
}

/// Ungrouped (no group keys) segment aggregation: the canonical 8-lane
/// scheme from DESIGN.md §15. Element j of the segment's match slice updates
/// lane j % 8 and the lanes fold with the fixed trees in kernels.h, so every
/// ISA tier — and the oracle's independent implementation — produces the
/// same bits. Only the stats a kind emits are computed.
void aggregate_ungrouped(SegmentPartial& part, const std::vector<AggRef>& agg_refs,
                         const kernels::KernelTable& kt, const std::uint32_t* rows,
                         std::uint32_t base, std::size_t len) {
  const std::size_t naggs = agg_refs.size();
  part.keys.emplace_back();
  part.example_row.push_back(rows != nullptr ? rows[0] : base);
  part.states.resize(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    const AggRef& spec = agg_refs[a];
    AggState& s = part.states[a];
    s.n = static_cast<std::int64_t>(len);
    double lanes[kernels::kLanes];
    switch (spec.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kMean:
        std::fill(std::begin(lanes), std::end(lanes), 0.0);
        if (spec.value.f64 != nullptr) {
          kt.sum_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::sum_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.sum = kernels::fold_sum(lanes);
        break;
      case AggKind::kMin:
        std::fill(std::begin(lanes), std::end(lanes), std::numeric_limits<double>::infinity());
        if (spec.value.f64 != nullptr) {
          kt.min_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::min_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.mn = kernels::fold_min(lanes);
        break;
      case AggKind::kMax:
        std::fill(std::begin(lanes), std::end(lanes), -std::numeric_limits<double>::infinity());
        if (spec.value.f64 != nullptr) {
          kt.max_lanes(spec.value.f64, rows, base, len, lanes);
        } else {
          kernels::max_lanes_i64(spec.value.i64, rows, base, len, lanes);
        }
        s.mx = kernels::fold_max(lanes);
        break;
      case AggKind::kWeightedMean: {
        double wlanes[kernels::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        double wvlanes[kernels::kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
        if (spec.value.f64 != nullptr && spec.weight.f64 != nullptr) {
          kt.dot_lanes(spec.value.f64, spec.weight.f64, rows, base, len, wlanes, wvlanes);
        } else {
          dot_lanes_numref(spec.value, spec.weight, rows, base, len, wlanes, wvlanes);
        }
        s.wsum = kernels::fold_sum(wlanes);
        s.wvsum = kernels::fold_sum(wvlanes);
        break;
      }
    }
  }
}

/// Radix-partitioned hash group-by for one segment (the high-cardinality
/// path). Rows scatter stably into 2^6 buckets on the low hash bits — every
/// row of a group lands in the same bucket — then each bucket groups through
/// a small open-addressing table, so probe chains stay short and cache-local
/// with no per-row node allocation. Because the scatter is stable, rows of a
/// group accumulate in ascending match order (the exact sequential order the
/// contract fixes), and sorting the finished groups by first-match position
/// restores canonical first-seen order, independent of bucket layout.
void radix_group_segment(SegmentPartial& part, const std::vector<KeyRef>& key_refs,
                         const std::vector<AggRef>& agg_refs, const std::uint32_t* rows,
                         std::uint32_t base, std::size_t len) {
  constexpr std::size_t kRadixBits = 6;
  constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t naggs = agg_refs.size();

  const auto row_of = [rows, base](std::size_t j) {
    return rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
  };

  // Pass 1: pack keys, hash, count buckets.
  std::vector<PackedKey> keys(len);
  std::vector<std::uint64_t> hashes(len);
  std::array<std::uint32_t, kRadixBuckets + 1> offsets{};
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint32_t r = row_of(j);
    PackedKey key;
    for (std::size_t k = 0; k < key_refs.size(); ++k) key.w[k] = key_ref_word(key_refs[k], r);
    keys[j] = key;
    const std::uint64_t h = PackedKeyHash{}(key);
    hashes[j] = h;
    ++offsets[(h & (kRadixBuckets - 1)) + 1];
  }
  std::uint32_t max_bucket = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    max_bucket = std::max(max_bucket, offsets[b + 1]);
    offsets[b + 1] += offsets[b];
  }

  // Pass 2: stable scatter of segment positions into bucket order.
  std::vector<std::uint32_t> order(len);
  std::array<std::uint32_t, kRadixBuckets> cursor;
  std::copy(offsets.begin(), offsets.begin() + kRadixBuckets, cursor.begin());
  for (std::size_t j = 0; j < len; ++j) {
    order[cursor[hashes[j] & (kRadixBuckets - 1)]++] = static_cast<std::uint32_t>(j);
  }

  // Pass 3: per-bucket open addressing; groups carry their first position.
  std::size_t table_size = 8;
  while (table_size < static_cast<std::size_t>(max_bucket) * 2) table_size <<= 1;
  std::vector<std::uint32_t> slots(table_size);
  std::vector<PackedKey> gkeys;
  std::vector<std::uint32_t> gfirst;  // first segment position of the group
  std::vector<AggState> gstates;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    const std::uint32_t bb = offsets[b], be = offsets[b + 1];
    if (bb == be) continue;
    std::fill(slots.begin(), slots.end(), kEmpty);
    const std::size_t mask = table_size - 1;
    for (std::uint32_t o = bb; o < be; ++o) {
      const std::uint32_t j = order[o];
      const PackedKey& key = keys[j];
      std::size_t idx = (hashes[j] >> kRadixBits) & mask;
      std::uint32_t g;
      while (true) {
        g = slots[idx];
        if (g == kEmpty) {
          g = static_cast<std::uint32_t>(gkeys.size());
          slots[idx] = g;
          gkeys.push_back(key);
          gfirst.push_back(j);
          gstates.resize(gstates.size() + naggs);
          break;
        }
        if (gkeys[g] == key) break;
        idx = (idx + 1) & mask;
      }
      update_aggs(agg_refs, gstates.data() + std::size_t{g} * naggs, row_of(j));
    }
  }

  // Canonical order: sort groups by first-seen position within the segment.
  std::vector<std::uint32_t> gorder(gkeys.size());
  for (std::size_t g = 0; g < gorder.size(); ++g) gorder[g] = static_cast<std::uint32_t>(g);
  std::sort(gorder.begin(), gorder.end(),
            [&gfirst](std::uint32_t a, std::uint32_t b) { return gfirst[a] < gfirst[b]; });
  part.keys.reserve(gorder.size());
  part.example_row.reserve(gorder.size());
  part.states.reserve(gorder.size() * naggs);
  for (const std::uint32_t g : gorder) {
    part.keys.push_back(gkeys[g]);
    part.example_row.push_back(row_of(gfirst[g]));
    part.states.insert(part.states.end(), gstates.begin() + std::size_t{g} * naggs,
                       gstates.begin() + (std::size_t{g} + 1) * naggs);
  }
}

/// Planning + phase 1 of Query::run, shared with run_partial(): compile the
/// predicate into typed kernels, zone-prune, and produce the ordered match
/// list plus scan accounting.
struct ScanResult {
  QueryStats st;
  std::vector<std::uint32_t> matches;  // empty on the identity fast path
  bool identity = false;
  std::size_t total_matches = 0;
};

ScanResult scan_phase(const Table& table, const std::optional<RowPredicate>& pred,
                      std::size_t threads, const common::CancelToken* cancel) {
  const std::size_t nrows = table.rows();
  if (nrows > std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("query: table exceeds 2^32 rows");
  }
  // Predicate plan. Exact predicates compile each conjunct into a typed
  // kernel; opaque ones fall back to the closure per row. Bounds over
  // existing columns additionally become zone-map prune tests.
  const bool have_pred = pred.has_value();
  const bool exact = have_pred && pred->exact();
  std::vector<Kernel> kernels;
  if (exact) {
    for (const auto& b : pred->bounds()) {
      const Column& c = table.col(b.column);
      Kernel k;
      if (b.equals) {
        if (c.type() != ColType::kString) {
          throw common::InvalidArgument("column " + b.column + " not string");
        }
        k.codes = c.codes().data();
        if (const auto code = c.find_code(*b.equals)) {
          k.eq_code = *code;
        } else {
          k.impossible = true;
        }
      } else {
        k.num = numeric_ref(c);
        k.lo = b.lo;
        k.hi = b.hi;
      }
      kernels.push_back(k);
    }
  }

  const ZoneIndex* zi = table.zone_index();
  const bool prune =
      have_pred && zi != nullptr && !pred->bounds().empty() && zi->chunks > 0;
  std::vector<PruneTest> prune_tests;
  if (prune) {
    for (const auto& b : pred->bounds()) {
      if (!table.has_col(b.column)) continue;
      std::size_t ci = 0;
      while (table.columns()[ci].name() != b.column) ++ci;
      const Column& c = table.columns()[ci];
      PruneTest t;
      t.ci = ci;
      if (b.equals) {
        if (c.type() != ColType::kString) continue;
        if (const auto code = c.find_code(*b.equals)) {
          t.lo = t.hi = static_cast<double>(*code);
        } else {
          t.fail_all = true;  // value absent from the whole table
        }
      } else {
        if (c.type() == ColType::kString) continue;
        t.lo = b.lo;
        t.hi = b.hi;
      }
      prune_tests.push_back(t);
    }
  }

  const std::size_t chunk_rows = prune ? zi->chunk_rows : kExecChunkRows;
  const std::size_t nchunks = nrows == 0 ? 0 : (nrows + chunk_rows - 1) / chunk_rows;
  ScanResult res;
  QueryStats& st = res.st;
  if (prune) st.chunks_total = zi->chunks;

  const kernels::KernelTable& kt = run_kernels(nrows);

  // Per-run scan state, hoisted out of the pool workers: an equality literal
  // absent from its dictionary kills every chunk at once, and zone-map prune
  // decisions depend only on the chunk grid, so both are derived here once
  // instead of being re-tested inside every worker invocation.
  bool impossible = false;
  for (const auto& k : kernels) impossible = impossible || k.impossible;
  std::vector<std::uint8_t> chunk_pruned;
  if (prune) {
    chunk_pruned.assign(nchunks, 0);
    for (std::size_t ch = 0; ch < nchunks; ++ch) {
      for (const auto& t : prune_tests) {
        const ZoneIndex::Range& range = zi->ranges[t.ci][ch];
        if (t.fail_all || range.hi < t.lo || range.lo > t.hi) {
          chunk_pruned[ch] = 1;
          break;
        }
      }
    }
  }

  // Without a predicate every row matches and match index == row index, so
  // the selection vectors and the concatenated match list are pure memory
  // traffic — skip them and let phase 2 address rows directly.
  res.identity = !have_pred;
  std::vector<ChunkResult> chunks(res.identity ? 0 : nchunks);
  if (!res.identity) {
    common::pool_run(nchunks, threads, 0, [&](std::size_t ch) {
      poll_cancel(cancel);
      ChunkResult& cres = chunks[ch];
      if (!chunk_pruned.empty() && chunk_pruned[ch] != 0) {
        cres.pruned = true;
        return;
      }
      const std::size_t begin = ch * chunk_rows;
      const std::size_t end = std::min(nrows, begin + chunk_rows);
      cres.rows_scanned = end - begin;
      if (exact && impossible) return;  // scanned, nothing matches
      auto& sel = cres.sel;
      if (exact) {
        sel.resize(end - begin);
        const auto b32 = static_cast<std::uint32_t>(begin);
        const auto e32 = static_cast<std::uint32_t>(end);
        std::size_t cnt = 0;
        if (kernels.empty()) {
          for (std::uint32_t r = b32; r < e32; ++r) sel[cnt++] = r;
        } else {
          const Kernel& k0 = kernels[0];
          if (k0.codes != nullptr) {
            cnt = kt.filter_codes_eq(k0.codes, b32, e32, k0.eq_code, sel.data());
          } else if (k0.num.f64 != nullptr) {
            cnt = kt.filter_f64_range(k0.num.f64, b32, e32, k0.lo, k0.hi, sel.data());
          } else {
            cnt = filter_i64_range(k0.num.i64, b32, e32, k0.lo, k0.hi, sel.data());
          }
          for (std::size_t k = 1; k < kernels.size() && cnt != 0; ++k) {
            const Kernel& kn = kernels[k];
            if (kn.codes != nullptr) {
              cnt = kt.refine_codes_eq(kn.codes, sel.data(), cnt, kn.eq_code, sel.data());
            } else if (kn.num.f64 != nullptr) {
              cnt = kt.refine_f64_range(kn.num.f64, sel.data(), cnt, kn.lo, kn.hi, sel.data());
            } else {
              cnt = refine_i64_range(kn.num.i64, sel.data(), cnt, kn.lo, kn.hi, sel.data());
            }
          }
        }
        sel.resize(cnt);
      } else {
        for (std::size_t r = begin; r < end; ++r) {
          if ((*pred)(table, r)) sel.push_back(static_cast<std::uint32_t>(r));
        }
      }
    });
  }

  if (res.identity) {
    st.rows_scanned = nrows;
    res.total_matches = nrows;
  } else {
    for (const auto& c : chunks) {
      if (c.pruned) ++st.chunks_pruned;
      st.rows_scanned += c.rows_scanned;
      res.total_matches += c.sel.size();
    }
    res.matches.reserve(res.total_matches);
    for (const auto& c : chunks) {
      res.matches.insert(res.matches.end(), c.sel.begin(), c.sel.end());
    }
  }
  st.rows_matched = res.total_matches;
  return res;
}

KeyRef make_key_ref(const Column& c) {
  KeyRef ref;
  ref.type = c.type();
  switch (c.type()) {
    case ColType::kDouble:
      ref.f64 = c.doubles().data();
      break;
    case ColType::kInt64:
      ref.i64 = c.int64s().data();
      break;
    case ColType::kString:
      ref.codes = c.codes().data();
      break;
  }
  return ref;
}

/// Column references of one query, resolved once and shared by both
/// aggregation contracts and by run_partial.
struct ColumnRefs {
  std::vector<KeyRef> keys;
  std::vector<AggRef> aggs;
};

ColumnRefs resolve_refs(const Table& table, const std::vector<std::string>& keys,
                        const std::vector<AggSpec>& aggs) {
  ColumnRefs refs;
  refs.keys.reserve(keys.size());
  for (const auto& k : keys) refs.keys.push_back(make_key_ref(table.col(k)));
  refs.aggs.reserve(aggs.size());
  for (const auto& a : aggs) {
    AggRef ref;
    ref.kind = a.kind;
    if (a.kind != AggKind::kCount) {
      ref.value = numeric_ref(table.col(a.column));
      if (a.kind == AggKind::kWeightedMean) ref.weight = numeric_ref(table.col(a.weight));
    }
    refs.aggs.push_back(ref);
  }
  return refs;
}

/// Result groups of either contract, in first-seen order.
struct Groups {
  std::vector<std::size_t> example_row;  // first matching row per group
  std::vector<AggState> states;          // [group * naggs + agg]
};

/// Canonical segment contract: partial aggregation over kSegmentRows
/// segments of the match list on the pool, partials merged in segment order.
Groups aggregate_segments(const Table& table, const std::vector<std::string>& keys,
                          const ColumnRefs& refs, const std::uint32_t* match_ptr,
                          std::size_t total_matches, std::size_t threads,
                          const common::CancelToken* cancel) {
  const std::vector<KeyRef>& key_refs = refs.keys;
  const std::vector<AggRef>& agg_refs = refs.aggs;
  const kernels::KernelTable& kt = run_kernels(table.rows());
  const std::size_t naggs = agg_refs.size();
  const std::size_t nsegs =
      total_matches == 0 ? 0 : (total_matches + kSegmentRows - 1) / kSegmentRows;

  // Dense fast path for the common report shape: every group key is a
  // dictionary code (validated non-negative, < dict size) and the combined
  // code domain is small, so group slots are addressed directly by combined
  // code — no per-row hashing. Slots still record first-seen order per
  // segment, so group order and the merge are unchanged.
  constexpr std::size_t kMaxDenseGroups = std::size_t{1} << 14;
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  bool dense = !key_refs.empty();  // no keys → the vectorized ungrouped path
  std::size_t dense_domain = 1;
  std::array<std::size_t, kMaxGroupKeys> dense_mult{};
  for (std::size_t k = 0; k < key_refs.size(); ++k) {
    if (key_refs[k].type != ColType::kString) {
      dense = false;
      break;
    }
    dense_mult[k] = dense_domain;
    dense_domain *= table.col(keys[k]).dict().size();
    if (dense_domain > kMaxDenseGroups) {
      dense = false;
      break;
    }
  }

  std::vector<SegmentPartial> partials(nsegs);
  common::pool_run(nsegs, threads, 0, [&](std::size_t seg) {
    poll_cancel(cancel);
    SegmentPartial& part = partials[seg];
    const std::size_t begin = seg * kSegmentRows;
    const std::size_t end = std::min(total_matches, begin + kSegmentRows);
    const std::size_t len = end - begin;
    const std::uint32_t* rows = match_ptr != nullptr ? match_ptr + begin : nullptr;
    const auto base = static_cast<std::uint32_t>(begin);
    if (key_refs.empty()) {
      aggregate_ungrouped(part, agg_refs, kt, rows, base, len);
      return;
    }
    if (dense) {
      std::vector<std::uint32_t> slot(dense_domain, kNoGroup);
      for (std::size_t j = 0; j < len; ++j) {
        const std::uint32_t r = rows != nullptr ? rows[j] : base + static_cast<std::uint32_t>(j);
        std::size_t idx = 0;
        for (std::size_t k = 0; k < key_refs.size(); ++k) {
          idx += static_cast<std::size_t>(key_refs[k].codes[r]) * dense_mult[k];
        }
        std::uint32_t g = slot[idx];
        if (g == kNoGroup) {
          g = static_cast<std::uint32_t>(part.keys.size());
          slot[idx] = g;
          PackedKey key;
          for (std::size_t k = 0; k < key_refs.size(); ++k) {
            key.w[k] = static_cast<std::uint32_t>(key_refs[k].codes[r]);
          }
          part.keys.push_back(key);
          part.example_row.push_back(r);
          part.states.resize(part.states.size() + naggs);
        }
        update_aggs(agg_refs, part.states.data() + std::size_t{g} * naggs, r);
      }
      return;
    }
    radix_group_segment(part, key_refs, agg_refs, rows, base, len);
  });

  // Merge partials in segment order (deterministic group order).
  poll_cancel(cancel);
  Groups out;
  std::unordered_map<PackedKey, std::size_t, PackedKeyHash> groups;
  for (const auto& part : partials) {
    for (std::size_t g = 0; g < part.keys.size(); ++g) {
      const auto [it, inserted] = groups.emplace(part.keys[g], out.example_row.size());
      if (inserted) {
        out.example_row.push_back(part.example_row[g]);
        out.states.resize(out.states.size() + naggs);
      }
      merge_states(out.states.data() + it->second * naggs, part.states.data() + g * naggs,
                   naggs);
    }
  }
  return out;
}

/// The micro-cells of the time-partitioned contract (DESIGN.md §16) as
/// sorted runs. A sub-tuple is the group-key words followed by the
/// partition subkeys that are not group keys; sub-tuples and groups get
/// dense ids in first-match order, which is the contract's first-seen
/// order. `order` holds the match positions stably sorted by (sub-tuple,
/// day): every cell is one run of equal (sub, day), its rows still in match
/// order, and each sub-tuple's cells follow each other by ascending day.
struct CellRuns {
  std::vector<std::uint32_t> sub;          // per match position
  std::vector<std::int64_t> day;           // per match position
  std::vector<std::uint32_t> sub_first;    // first match position per sub
  std::vector<std::uint32_t> sub_group;    // group id per sub
  std::vector<std::uint32_t> group_first;  // first match position per group
  std::vector<std::uint32_t> order;        // match positions by (sub, day)
  std::vector<std::uint32_t> sub_begin;    // sub s owns order[sub_begin[s], sub_begin[s + 1])

  [[nodiscard]] std::size_t subs() const { return sub_first.size(); }
};

/// Partition subkeys that are not among the group keys, in partition order.
std::vector<std::string> extra_subkeys(const Table& table,
                                       const std::vector<std::string>& group_by) {
  std::vector<std::string> extras;
  for (const auto& name : table.time_partition_subkeys()) {
    if (std::find(group_by.begin(), group_by.end(), name) == group_by.end()) {
      extras.push_back(name);
    }
  }
  return extras;
}

/// Digit width of the radix passes over day offsets: 2^11 counters stay in L1.
constexpr unsigned kDayDigitBits = 11;

CellRuns sort_cell_runs(const Table& table, const std::vector<KeyRef>& key_refs,
                        const std::vector<std::string>& extras,
                        const std::uint32_t* match_rows, std::size_t n,
                        const common::CancelToken* cancel) {
  std::vector<KeyRef> tuple = key_refs;
  for (const auto& name : extras) tuple.push_back(make_key_ref(table.col(name)));
  const std::size_t width = tuple.size();
  std::array<std::uint64_t, 7> key{};
  if (width > key.size()) {
    throw common::InvalidArgument("time-partitioned query: key + subkey tuple too wide");
  }
  const std::int64_t* end_vals = table.col(table.time_partition()).int64s().data();

  // Id pass, in match order: each match's sub-tuple id and day.
  CellRuns runs;
  runs.sub.resize(n);
  runs.day.resize(n);
  TupleIndex subs(width);
  std::int64_t dmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t dmax = std::numeric_limits<std::int64_t>::min();
  for_blocks(n, cancel, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint32_t r = row_at(match_rows, j);
      for (std::size_t k = 0; k < width; ++k) key[k] = key_ref_word(tuple[k], r);
      const std::uint32_t s = subs.insert(key.data());
      if (s == runs.sub_first.size()) runs.sub_first.push_back(static_cast<std::uint32_t>(j));
      runs.sub[j] = s;
      const std::int64_t d = end_day_index(end_vals[r]);
      runs.day[j] = d;
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
  });

  // Group ids: a group key is its sub-tuples' leading words, and walking
  // sub-tuples in id order meets each group first at the group's first
  // match, so group ids come out in first-match order as well.
  const std::size_t nsubs = runs.subs();
  runs.sub_group.resize(nsubs);
  if (extras.empty()) {
    std::iota(runs.sub_group.begin(), runs.sub_group.end(), 0u);
    runs.group_first = runs.sub_first;
  } else {
    TupleIndex groups(key_refs.size());
    for_blocks(nsubs, cancel, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const std::uint32_t g = groups.insert(subs.key(static_cast<std::uint32_t>(s)));
        if (g == runs.group_first.size()) runs.group_first.push_back(runs.sub_first[s]);
        runs.sub_group[s] = g;
      }
    });
  }

  // Stable LSD radix sort of the match positions: counting passes over the
  // day offset from the earliest day, kDayDigitBits at a time, then one
  // pass with a bucket per sub-tuple. Days and sub ids are never packed
  // into one key, so no day range can overflow it. A pass whose digit is
  // the same for every match is skipped.
  runs.order.resize(n);
  std::iota(runs.order.begin(), runs.order.end(), 0u);
  std::vector<std::uint32_t> scratch(n);
  std::vector<std::uint32_t> offsets;
  const auto scatter = [&](std::size_t nbuckets, const auto& bucket) {
    offsets.assign(nbuckets + 1, 0);
    for_blocks(n, cancel, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++offsets[bucket(runs.order[i]) + 1];
    });
    bool one_bucket = false;
    for (std::size_t b = 0; b < nbuckets; ++b) {
      one_bucket = one_bucket || offsets[b + 1] == n;
      offsets[b + 1] += offsets[b];
    }
    if (one_bucket) return;
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for_blocks(n, cancel, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t p = runs.order[i];
        scratch[cursor[bucket(p)]++] = p;
      }
    });
    runs.order.swap(scratch);
  };
  if (n > 0) {
    const auto base = static_cast<std::uint64_t>(dmin);
    const auto span = static_cast<std::uint64_t>(dmax) - base;
    constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDayDigitBits) - 1;
    for (unsigned shift = 0; shift < static_cast<unsigned>(std::bit_width(span));
         shift += kDayDigitBits) {
      scatter(kDigitMask + 1, [&](std::uint32_t p) {
        return static_cast<std::size_t>(
            ((static_cast<std::uint64_t>(runs.day[p]) - base) >> shift) & kDigitMask);
      });
    }
  }
  scatter(nsubs, [&runs](std::uint32_t p) { return std::size_t{runs.sub[p]}; });
  runs.sub_begin = std::move(offsets);
  return runs;
}

/// Accumulates the cells of sub-tuple `s` one run at a time, each
/// sequentially in match order into `cell`, and hands them to
/// `emit(day, cell)` by ascending day. Polls `cancel` every kSegmentRows
/// positions of the run order.
template <typename Emit>
void accumulate_sub(const CellRuns& runs, std::uint32_t s, const std::vector<AggRef>& aggs,
                    const std::uint32_t* match_rows, const common::CancelToken* cancel,
                    AggState* cell, Emit&& emit) {
  const std::size_t naggs = aggs.size();
  std::size_t i = runs.sub_begin[s];
  const std::size_t end = runs.sub_begin[s + 1];
  while (i < end) {
    const std::int64_t day = runs.day[runs.order[i]];
    std::fill(cell, cell + naggs, AggState{});
    do {
      if (i % kSegmentRows == 0) poll_cancel(cancel);
      update_aggs(aggs, cell, row_at(match_rows, runs.order[i]));
      ++i;
    } while (i < end && runs.day[runs.order[i]] == day);
    emit(day, static_cast<const AggState*>(cell));
  }
}

/// Time-partitioned contract over sorted cell runs: each sub-tuple's cells
/// fold through the calendar tree, and sub-tuple totals merge into their
/// group in first-seen order.
Groups aggregate_cells(const CellRuns& runs, const std::vector<AggRef>& aggs,
                       const std::uint32_t* match_rows, const common::CancelToken* cancel) {
  const std::size_t naggs = aggs.size();
  Groups out;
  out.example_row.reserve(runs.group_first.size());
  for (const std::uint32_t j : runs.group_first) out.example_row.push_back(row_at(match_rows, j));
  out.states.resize(runs.group_first.size() * naggs);
  std::vector<AggState> cell(naggs);
  std::vector<AggState> sub_total(naggs);
  TimeTreeFold fold(sub_total.data(), naggs);  // finish() leaves it ready for the next sub
  for (std::uint32_t s = 0; s < runs.subs(); ++s) {
    std::fill(sub_total.begin(), sub_total.end(), AggState{});
    accumulate_sub(runs, s, aggs, match_rows, cancel, cell.data(),
                   [&fold](std::int64_t day, const AggState* st) { fold.add(day, st); });
    fold.finish();
    merge_states(out.states.data() + std::size_t{runs.sub_group[s]} * naggs, sub_total.data(),
                 naggs);
  }
  return out;
}

}  // namespace

Table Query::run() const {
  if (aggs_.empty()) throw common::InvalidArgument("query without aggregations");
  if (keys_.size() > kMaxGroupKeys) {
    throw common::InvalidArgument("query supports at most 4 group keys");
  }
  const std::size_t nrows = table_.rows();
  if (nrows > std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("query: table exceeds 2^32 rows");
  }

  // Output schema: keys (typed like the source) then one double per agg
  // (count as int64).
  std::vector<std::pair<std::string, ColType>> schema;
  for (const auto& k : keys_) schema.emplace_back(k, table_.col(k).type());
  for (const auto& a : aggs_) {
    schema.emplace_back(a.as.empty() ? default_agg_name(a) : a.as,
                        a.kind == AggKind::kCount ? ColType::kInt64 : ColType::kDouble);
  }
  Table out(table_.name() + "_agg", std::move(schema));
  const ColumnRefs refs = resolve_refs(table_, keys_, aggs_);

  // Cancellation safe points: once per scan chunk, then at most every
  // kSegmentRows matches of every aggregation loop (coarse enough to stay
  // off the per-row hot path). Throwing tears the run down through the
  // pool's rethrow; stats_ is reset here and only assigned on success, so
  // no partial accounting escapes.
  stats_ = QueryStats{};
  const ScanResult scan = scan_phase(table_, pred_, threads_, cancel_);
  const std::uint32_t* match_ptr = scan.identity ? nullptr : scan.matches.data();
  const Groups groups =
      table_.time_partition().empty()
          ? aggregate_segments(table_, keys_, refs, match_ptr, scan.total_matches, threads_,
                               cancel_)
          : aggregate_cells(sort_cell_runs(table_, refs.keys, extra_subkeys(table_, keys_),
                                           match_ptr, scan.total_matches, cancel_),
                            refs.aggs, match_ptr, cancel_);

  // --- emit group rows in first-seen order --------------------------------
  const std::size_t naggs = aggs_.size();
  for (std::size_t g = 0; g < groups.example_row.size(); ++g) {
    auto row = out.append();
    const std::size_t src = groups.example_row[g];
    for (const auto& k : keys_) {
      const Column& c = table_.col(k);
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
      const AggSpec& spec = aggs_[a];
      const AggState& s = groups.states[g * naggs + a];
      const std::string name = spec.as.empty() ? default_agg_name(spec) : spec.as;
      switch (spec.kind) {
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
  stats_ = scan.st;
  return out;
}

partial::Partial Query::run_partial(const std::string& rank_column) const {
  if (aggs_.empty()) throw common::InvalidArgument("query without aggregations");
  if (keys_.size() > kMaxGroupKeys) {
    throw common::InvalidArgument("query supports at most 4 group keys");
  }
  if (table_.time_partition().empty()) {
    throw common::InvalidArgument("run_partial: table has no time partition");
  }
  const std::int64_t* rank_vals = nullptr;
  if (!rank_column.empty()) {
    const Column& rc = table_.col(rank_column);
    if (rc.type() != ColType::kInt64) {
      throw common::InvalidArgument("run_partial: rank column " + rank_column +
                                    " must be int64");
    }
    rank_vals = rc.int64s().data();
  }
  const ColumnRefs refs = resolve_refs(table_, keys_, aggs_);
  const std::vector<std::string> extras = extra_subkeys(table_, keys_);

  stats_ = QueryStats{};
  const ScanResult scan = scan_phase(table_, pred_, threads_, cancel_);
  const std::uint32_t* match_ptr = scan.identity ? nullptr : scan.matches.data();
  const CellRuns runs =
      sort_cell_runs(table_, refs.keys, extras, match_ptr, scan.total_matches, cancel_);

  // Tuple rank: the minimum rank-column value over the tuple's matches, or
  // without a rank column its first-seen index.
  std::vector<std::int64_t> rank(runs.subs());
  if (rank_vals != nullptr) {
    std::fill(rank.begin(), rank.end(), std::numeric_limits<std::int64_t>::max());
    for_blocks(scan.total_matches, cancel_, [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        std::int64_t& r = rank[runs.sub[j]];
        r = std::min(r, rank_vals[row_at(match_ptr, j)]);
      }
    });
  } else {
    std::iota(rank.begin(), rank.end(), std::int64_t{0});
  }

  partial::Partial p;
  p.stats = scan.st;
  for (const auto& k : keys_) p.key_schema.emplace_back(k, table_.col(k).type());
  const std::size_t naggs = aggs_.size();
  p.naggs = naggs;
  const std::uint32_t nsubs = static_cast<std::uint32_t>(runs.subs());

  // Key columns from each sub-tuple's first match, worded as the engine
  // keys them.
  const auto key_column = [&](const Column& c) {
    const KeyRef ref = make_key_ref(c);
    std::vector<std::uint64_t> words(nsubs);
    for (std::uint32_t s = 0; s < nsubs; ++s) {
      words[s] = key_ref_word(ref, row_at(match_ptr, runs.sub_first[s]));
    }
    return partial::key_column(c, std::move(words));
  };
  for (const auto& k : keys_) p.group.push_back(key_column(table_.col(k)));
  for (const auto& name : extras) p.extra.push_back(key_column(table_.col(name)));

  p.rank = std::move(rank);
  p.day_end.resize(nsubs);
  std::vector<AggState> cell(naggs);
  for (std::uint32_t s = 0; s < nsubs; ++s) {
    accumulate_sub(runs, s, refs.aggs, match_ptr, cancel_, cell.data(),
                   [&p, naggs](std::int64_t day, const AggState* st) {
                     p.days.push_back(day);
                     p.states.insert(p.states.end(), st, st + naggs);
                   });
    p.day_end[s] = static_cast<std::uint32_t>(p.days.size());
  }
  stats_ = p.stats;
  return p;
}

}  // namespace supremm::warehouse
