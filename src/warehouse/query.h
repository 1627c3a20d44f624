// Query layer: filters, group-by aggregation, time bucketing.
//
// Predicates built with the eq/ge/le/between/all_of helpers carry structured
// bounds alongside the row-test closure; when the source table has a
// ZoneIndex (tables materialized from the archive do), Query::run() tests
// those bounds against each chunk's min/max first and skips whole chunks
// that cannot contain a matching row. Arbitrary lambdas still work - they
// simply carry no bounds and scan every chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "warehouse/table.h"

namespace supremm::warehouse {

namespace partial {
struct Partial;  // warehouse/partial.h
}  // namespace partial

/// Aggregation kinds. Weighted kinds read the weight column per row.
enum class AggKind : std::uint8_t {
  kSum,
  kMean,
  kWeightedMean,
  kMax,
  kMin,
  kCount,
};

struct AggSpec {
  std::string column;             // source column (ignored for kCount)
  AggKind kind = AggKind::kSum;
  std::string weight;             // weight column for kWeightedMean
  std::string as;                 // output column name; default derived
};

/// A conjunct the predicate is known to imply, usable for chunk pruning: the
/// row can only match if `column`'s value is within [lo, hi] (numeric), or
/// equals `equals` (string; resolved to a dictionary code at prune time).
struct PredicateBounds {
  std::string column;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::optional<std::string> equals;
};

/// Row predicate; build with the helpers below or any lambda. Helper-built
/// predicates additionally expose bounds() so scans can prune chunks whose
/// zone-map range is disjoint from every possible match; when the bounds
/// fully describe the predicate (exact()), Query::run() evaluates them with
/// typed column-wise kernels instead of calling the closure per row.
///
/// Predicates must be pure: Query::run() may evaluate them concurrently from
/// worker threads when a thread count > 1 is requested.
class RowPredicate {
 public:
  using Fn = std::function<bool(const Table&, std::size_t)>;

  RowPredicate() = default;
  RowPredicate(Fn fn, std::vector<PredicateBounds> bounds, bool exact = false)
      : fn_(std::move(fn)), bounds_(std::move(bounds)), exact_(exact) {}
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, RowPredicate> &&
                                        std::is_invocable_r_v<bool, F, const Table&, std::size_t>>>
  RowPredicate(F fn) : fn_(std::move(fn)) {}  // NOLINT: implicit, accepts lambdas

  [[nodiscard]] bool operator()(const Table& t, std::size_t r) const { return fn_(t, r); }
  [[nodiscard]] explicit operator bool() const noexcept { return static_cast<bool>(fn_); }
  /// Conjuncts implied by this predicate (empty for opaque lambdas).
  [[nodiscard]] const std::vector<PredicateBounds>& bounds() const noexcept { return bounds_; }
  /// True when bounds() is not merely implied but equivalent to the
  /// predicate, enabling vectorized evaluation without the closure.
  [[nodiscard]] bool exact() const noexcept { return exact_; }

 private:
  Fn fn_;
  std::vector<PredicateBounds> bounds_;
  bool exact_ = false;
};

[[nodiscard]] RowPredicate eq(std::string column, std::string value);
[[nodiscard]] RowPredicate ge(std::string column, double value);
[[nodiscard]] RowPredicate le(std::string column, double value);
[[nodiscard]] RowPredicate between(std::string column, double lo, double hi);
[[nodiscard]] RowPredicate all_of(std::vector<RowPredicate> preds);

/// Scan statistics from the most recent Query::run(). Deterministic for any
/// thread count: chunk accounting depends only on the table's chunk layout.
struct QueryStats {
  std::size_t chunks_total = 0;   // 0 when no zone index / no bounds
  std::size_t chunks_pruned = 0;  // skipped via zone maps
  std::size_t rows_scanned = 0;
  std::size_t rows_matched = 0;   // rows that passed the predicate
};

/// A composed query: optional filter, group keys, aggregations. Returns a
/// new table with one row per group, key columns first.
///
/// Execution is chunked, vectorized and optionally parallel: predicates
/// evaluate into per-chunk selection vectors (typed kernels when the
/// predicate is exact(), the closure otherwise), rows aggregate into
/// fixed-size segments of the match list on the shared worker pool, and
/// segment partials merge in segment order. The kernels are SIMD per the
/// runtime ISA tier (common/simd.h): filters compute exact per-row facts,
/// and ungrouped aggregates follow the canonical 8-lane scheme, so every
/// tier produces the same bits. Because the segment layout depends only
/// on the ordered list of matching rows — not on the thread count, the
/// ISA tier, or the table's zone-chunk size — results, group order and
/// QueryStats are identical for any threads() setting and any
/// SUPREMM_SIMD tier (DESIGN.md §7 determinism rule, §15 kernel layer).
/// A time-partitioned table (Table::set_time_partition) aggregates under
/// the §16 contract instead: matches sort stably into (sub-tuple, day)
/// cell runs that accumulate sequentially and fold through the calendar
/// tree; only the scan runs on the pool.
///
/// Group keys are packed bit-exactly (dictionary code / int64 bits /
/// double bit pattern), so double keys that agree only in their first six
/// significant digits land in distinct groups. Doubles group by bit
/// pattern: -0.0 and 0.0 are distinct keys, and NaNs group together only
/// when their payload bits match. At most 4 group keys are supported.
class Query {
 public:
  explicit Query(const Table& table) : table_(table) {}

  Query& where(RowPredicate pred);
  Query& group_by(std::vector<std::string> keys);
  Query& aggregate(std::vector<AggSpec> aggs);
  /// Worker threads for run(): 1 (default) runs inline, 0 uses hardware
  /// concurrency. Results are identical for any setting.
  Query& threads(std::size_t n);
  /// Cooperative cancellation: run() polls `token` once per scan chunk and
  /// at least every 8192 matches of every aggregation loop, and throws
  /// common::Cancelled when it trips (explicit cancel or expired deadline).
  /// The token must outlive run(); nullptr (default) disables the checks.
  Query& cancel_token(const common::CancelToken* token);

  /// Throws common::Cancelled if the cancel token tripped; on that path
  /// stats() is left zeroed (no partial accounting escapes).
  [[nodiscard]] Table run() const;

  /// Run phase 1 (same kernels, pruning and accounting as run()) but stop at
  /// the day-level partial-aggregate state of the time-partitioned contract
  /// instead of folding to a result table — the shard half of a federated
  /// query (warehouse/partial.h; merge with partial::merge_partials). Each
  /// tuple's rank is the minimum of `rank_column` (int64; the jobs realm
  /// uses job_id) over its matching rows, which lets a coordinator restore
  /// canonical first-seen order across shards. Requires a time-partitioned
  /// table; throws like run() otherwise.
  [[nodiscard]] partial::Partial run_partial(const std::string& rank_column) const;

  /// Statistics from the most recent run() on this query object. Reset at
  /// the start of every run() and populated only on successful completion,
  /// so a cancelled run reads as all-zero, never as a partial scan.
  [[nodiscard]] const QueryStats& stats() const noexcept { return stats_; }

 private:
  const Table& table_;
  std::optional<RowPredicate> pred_;
  std::vector<std::string> keys_;
  std::vector<AggSpec> aggs_;
  std::size_t threads_ = 1;
  const common::CancelToken* cancel_ = nullptr;
  mutable QueryStats stats_;
};

/// Floor t to a bucket boundary (for time-series grouping).
[[nodiscard]] constexpr std::int64_t time_bucket(std::int64_t t, std::int64_t width) noexcept {
  return (t / width) * width;
}

}  // namespace supremm::warehouse
