// Public partial-aggregate API for the time-partitioned query contract
// (DESIGN.md §16, §17) — the piece of the executor a federated warehouse
// has to ship across the wire.
//
// `Query::run` on a time-partitioned table works in three fixed stages:
// micro-cells keyed (group keys, partition subkeys, end-day) accumulate
// sequentially in match order; per (group, sub-tuple) the day cells fold
// through the calendar tree; sub-tuple totals merge into groups in
// first-seen order. The day-level cell states are the natural *partial*:
// they are complete for any row subset that never splits a (sub-tuple, day)
// cell, and the fold/merge stages are pure functions of them. This header
// exposes that boundary and the stages after it:
//
//   Query::run_partial()  shard side: the day-level tuple partials of a
//                         query, built from the same sorted cell runs
//                         Query::run folds, so the identity "merge of
//                         partials == single scan" holds by construction
//   fold_tuples()         stage 1: each tuple's days through TimeTreeFold
//   merge_groups()        stage 2: tuple totals into groups, rank order
//   emit()                stage 3: the "_agg" table
//   merge_partials()      coordinator side: union shard partials, then the
//                         three stages — the same "_agg" table a
//                         single-warehouse scan would produce
//
// A shard that provably owns every row of a tuple (or of a group) may run
// the stages itself (fold_to) and ship one total per tuple (or group)
// instead of its day cells. The coordinator then runs the same stages over
// the folded states, and they pass unchanged: every accumulator starts at
// +0.0 / ±inf, an accumulated sum is never -0.0 and an accumulated min/max
// never NaN (aggstate.h), so folding one accumulated state through fresh
// accumulators is a bitwise no-op.
//
// Determinism across shards: the engine emits groups (and sub-tuples within
// a group) in first-match order. On a table sorted ascending by a unique
// rank column (the jobs table is: publish_jobs/Archive::load keep it
// ascending by job id), first-match order IS ascending minimum rank, and
// the minimum rank of a tuple is the min over shards of per-shard minima —
// an order the coordinator can reconstruct exactly. Each tuple carries its
// cluster in the group keys or the extra subkeys, so a placement that
// shards by (cluster, day-range) never splits a (sub-tuple, day) cell, day
// lists from different shards are disjoint, and merged accumulators seeded
// at +0.0 reproduce the single-scan bits exactly (DESIGN.md §17 contract).
//
// Layout: a partial is columnar from the shard that builds it, across the
// wire (protocol v3 packs the arrays whole), to the coordinator's merge.
// Each key column is a dictionary of the strings this partial references
// plus one code per tuple, or one 8-byte word per tuple; each tuple has a
// rank and the end offset of its entries in the flat day and state arrays.
// Nothing allocates per tuple, and the merge unions fixed-width code words.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "warehouse/aggstate.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace supremm::warehouse::partial {

/// How far a partial has been folded: the number of merge stages already
/// applied to it. Each level is only correct for a shard that owns every
/// row of the unit it folds (DESIGN.md §17 catalog rule).
enum class Level : std::uint8_t {
  kDays = 0,    // per tuple, one state per day (or rollup bucket) cell
  kTuples = 1,  // per tuple, one folded total
  kGroups = 2,  // per group, one merged total; no extra subkeys
};
[[nodiscard]] const char* to_string(Level level);

/// One key column, one value per tuple, exact-bit typed. A string column is
/// a dictionary of the strings this partial references (dictionary codes
/// are per partial, so the coordinator remaps them) plus one code per tuple;
/// an int64 or double column is one word per tuple, doubles as raw bit
/// patterns (NaN payloads and -0.0 are distinct key values, same as the
/// engine's packed keys).
struct KeyColumn {
  ColType type = ColType::kInt64;
  std::vector<std::string> dict;      // kString
  std::vector<std::uint32_t> codes;   // kString: index into dict
  std::vector<std::uint64_t> words;   // kInt64 / kDouble

  /// The tuple's value as a key word: its code, or its raw 8 bytes.
  [[nodiscard]] std::uint64_t word(std::size_t t) const {
    return type == ColType::kString ? codes[t] : words[t];
  }
  [[nodiscard]] std::size_t size() const {
    return type == ColType::kString ? codes.size() : words.size();
  }
};

/// A serializable shard answer: per-tuple partial states at `level` plus
/// this shard's scan accounting. A tuple is one (group tuple, partition
/// sub-tuple) — or, at Level::kGroups, one group. `key_schema` fixes the
/// output key columns; every shard of a federation must agree on it (same
/// table schema).
struct Partial {
  QueryStats stats;
  std::vector<std::pair<std::string, ColType>> key_schema;
  std::size_t naggs = 0;
  Level level = Level::kDays;
  std::vector<KeyColumn> group;  // group-key values, key_schema order
  std::vector<KeyColumn> extra;  // partition subkeys not among the group keys
  /// Minimum rank-column value among each tuple's matching rows (run_partial
  /// with a rank column; the federation uses job_id). With no rank column
  /// this is the tuple's first-seen index — meaningful only within one run.
  std::vector<std::int64_t> rank;
  /// Tuple t owns entries [day_end[t - 1], day_end[t]) of `days` (from 0
  /// for t = 0) and the matching naggs-wide rows of `states`.
  std::vector<std::uint32_t> day_end;
  /// Ascending day indices with matches, per tuple (the first day of each
  /// rollup bucket when served from a coarser rollup level). A folded tuple
  /// or group keeps exactly one entry, its first day, which only keys the
  /// fold.
  std::vector<std::int64_t> days;
  std::vector<AggState> states;  // [entry * naggs + agg]

  [[nodiscard]] std::size_t tuples() const noexcept { return rank.size(); }
  [[nodiscard]] std::size_t day_begin(std::size_t t) const {
    return t == 0 ? 0 : day_end[t - 1];
  }
};

/// Shard side: the key column of table column `source` for tuples keyed by
/// `words`, one per tuple as the engine keys them (dictionary codes, int64
/// bits, double bit patterns). Dictionary codes are renumbered in first-use
/// order, so the column's dictionary holds only the strings its tuples
/// reference.
[[nodiscard]] KeyColumn key_column(const Column& source, std::vector<std::uint64_t> words);

/// The shape check every consumer of a partial relies on: one entry per
/// tuple in every column, types equal to `key_schema` for the group columns,
/// every code below its dictionary's size, strictly increasing day-end
/// offsets covering `days` (so no day list is empty), strictly ascending
/// days within each tuple, naggs states per day entry, exactly one entry per
/// tuple at a folded level, and no extra columns on group totals. Returns
/// what is wrong, or nothing for a well-formed partial.
[[nodiscard]] std::optional<std::string> shape_error(const Partial& p);

/// Stage 1: fold each tuple's cells, in ascending day order, through
/// TimeTreeFold into one total (equal days — a placement that split a cell —
/// first merge in list order). Each tuple keeps one entry keyed by its first
/// day; `level` becomes at least kTuples. A single-entry tuple comes out
/// bitwise unchanged.
void fold_tuples(Partial& p);

/// Stage 2: merge tuple totals into groups. Tuples are taken in ascending
/// rank order (stable), so groups form in first-seen order and each group
/// left-folds its tuples from +0.0 accumulators; every group becomes one
/// tuple (no extra keys, the group's minimum rank and first day), emitted in
/// that order. Requires kTuples or above; sets kGroups.
void merge_groups(Partial& p);

/// Stage 3: the "_agg" table a single-warehouse Query::run produces, one row
/// per group in list order. Requires a well-formed kGroups partial.
[[nodiscard]] Table emit(const Partial& p, const std::vector<AggSpec>& aggs,
                         const std::string& out_name);

/// Shard side: run the stages up to `level` (kDays leaves `p` as it is).
void fold_to(Partial& p, Level level);

/// Coordinator-side merge: union tuples across shards by exact key values
/// (string columns compared through one dictionary per column across the
/// parts; day lists merge; a day present in two partials — a placement that
/// split a cell — left-folds in `parts` order, deterministically), then
/// fold_tuples, merge_groups and emit. Parts may mix levels; folded states
/// pass the stages unchanged. `stats`, when non-null, receives the
/// field-wise sum of the shard stats. Throws InvalidArgument on empty input,
/// mismatched key schemas / agg counts between shards, a malformed partial
/// (shape_error), or a folded tuple or group that two partials report (a
/// shard folded a unit it did not own, so its total would be counted twice).
[[nodiscard]] Table merge_partials(std::span<const Partial> parts,
                                   const std::vector<AggSpec>& aggs,
                                   const std::string& out_name,
                                   QueryStats* stats = nullptr);

}  // namespace supremm::warehouse::partial
