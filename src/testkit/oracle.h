// Differential-testing oracle for the warehouse query engine (DESIGN.md §12).
//
// The vectorized executor in warehouse::Query is fast because it is layered:
// zone-map chunk pruning, typed predicate kernels over selection vectors,
// fixed-width packed group keys, a dense dict-code fast path, and per-segment
// partial aggregation merged in canonical order. Every one of those layers is
// a place where an optimization bug could silently skew the per-job metrics
// the paper's XDMoD reports are built from. The oracle here is the antidote:
// a deliberately naive, single-threaded, row-at-a-time interpreter that
// shares only the *public query contract* with the real engine — no zone
// maps, no selection vectors, no kernels, no dense path, and group keys held
// as plain vectors of bit patterns rather than packed tuples.
//
// The contract the oracle implements (and the engine must match bit-for-bit):
//   - a row matches iff every predicate term holds, evaluated with plain
//     double comparisons (int64 read as double) and string equality;
//   - groups are keyed by exact bit pattern (dictionary code, int64 bits,
//     double bits) and emitted in first-match order;
//   - aggregation is defined over the canonical 8192-row segment grid laid
//     over the ordered match list (DESIGN.md §11): values accumulate
//     sequentially within a segment and segment partials merge in segment
//     order. That grid is part of the public determinism contract — it is
//     what makes results independent of the thread count — so the oracle
//     computes the same arithmetic in the obvious way;
//   - QueryStats are predicted from first principles: the oracle recomputes
//     every chunk's min/max by scanning rows directly (never consulting the
//     table's ZoneIndex ranges) and applies the documented pruning rule.
//
// Queries are described by QuerySpec, a structural (closure-free) spec that
// both sides consume: run_engine() compiles it into a real warehouse::Query,
// run_oracle() interprets it row at a time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "warehouse/query.h"
#include "warehouse/table.h"

namespace supremm::testkit {

/// Predicate operators the helper constructors in warehouse/query.h expose.
enum class PredOp : std::uint8_t { kEq, kGe, kLe, kBetween };

/// One conjunct of a WHERE clause, structurally.
struct PredTerm {
  PredOp op = PredOp::kGe;
  std::string column;
  std::string value;  // kEq literal (string columns only)
  double lo = 0.0;    // kGe / kBetween threshold
  double hi = 0.0;    // kLe / kBetween threshold
};

/// A closure-free description of one warehouse query.
struct QuerySpec {
  bool has_where = false;
  /// Run the engine through an opaque row lambda instead of the bounds
  /// carrying helpers (exercises the closure fallback path; disables
  /// zone-map pruning on the engine side, which the oracle mirrors).
  bool opaque = false;
  std::vector<PredTerm> where;  // conjunction; meaningful when has_where
  std::vector<std::string> group_by;
  std::vector<warehouse::AggSpec> aggs;
  std::size_t threads = 1;
};

/// One executed query: the result table plus the scan statistics.
struct QueryRun {
  warehouse::Table table;
  warehouse::QueryStats stats;
};

/// `spec` compiled into a real warehouse::Query over `table` (at
/// `spec.threads`), ready to run; `table` must outlive it.
[[nodiscard]] warehouse::Query engine_query(const warehouse::Table& table,
                                            const QuerySpec& spec);

/// Execute `spec` through the real vectorized engine at `spec.threads`.
[[nodiscard]] QueryRun run_engine(const warehouse::Table& table, const QuerySpec& spec);

/// Execute `spec` through the naive reference interpreter (always single
/// threaded; `spec.threads` is ignored).
[[nodiscard]] QueryRun run_oracle(const warehouse::Table& table, const QuerySpec& spec);

/// First bitwise difference between two tables (schema, row order, and every
/// cell; doubles compared by bit pattern so -0.0 != 0.0 and NaN payloads
/// count), or nullopt when identical.
[[nodiscard]] std::optional<std::string> table_diff(const warehouse::Table& a,
                                                    const warehouse::Table& b);

/// First difference between two QueryStats, or nullopt when identical.
[[nodiscard]] std::optional<std::string> stats_diff(const warehouse::QueryStats& a,
                                                    const warehouse::QueryStats& b);

/// Run `spec` through both engines at the given thread count (overriding
/// spec.threads for the vectorized side) and report the first divergence in
/// results, group order, or QueryStats — nullopt when bit-identical.
[[nodiscard]] std::optional<std::string> differential_check(const warehouse::Table& table,
                                                            const QuerySpec& spec,
                                                            std::size_t threads);

/// Human-readable one-liner of a spec (for seed files and failure messages).
[[nodiscard]] std::string describe(const QuerySpec& spec);

}  // namespace supremm::testkit
