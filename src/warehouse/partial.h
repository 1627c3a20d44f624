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
// exposes that boundary:
//
//   Query::run_partial()  shard side: the day-level tuple partials of a
//                         query, built from the same sorted cell runs
//                         Query::run folds, so the identity "merge of
//                         partials == single scan" holds by construction
//   merge_partials()      coordinator side: union shard partials, order
//                         tuples by rank, fold, and emit the same "_agg"
//                         table a single-warehouse scan would produce
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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "warehouse/aggstate.h"
#include "warehouse/query.h"
#include "warehouse/table.h"

namespace supremm::warehouse::partial {

/// One group/subkey value, exact-bit typed: strings travel as strings
/// (dictionary codes are per-shard), doubles as raw bit patterns (NaN
/// payloads and -0.0 are distinct key values, same as the engine's packed
/// keys).
struct KeyValue {
  ColType type = ColType::kInt64;
  std::int64_t i64 = 0;       // kInt64
  std::uint64_t bits = 0;     // kDouble (std::bit_cast of the value)
  std::string str;            // kString

  bool operator==(const KeyValue&) const = default;
};

/// Day-level partial states of one (group tuple, partition sub-tuple):
/// everything the coordinator needs to finish the aggregation exactly.
struct TuplePartial {
  std::vector<KeyValue> group;  // group-key values, spec order
  std::vector<KeyValue> extra;  // partition subkeys not among the group keys
  /// Minimum rank-column value among the tuple's matching rows (run_partial
  /// with a rank column; the federation uses job_id). With no rank column
  /// this is the tuple's first-seen index — meaningful only within one run.
  std::int64_t rank = 0;
  std::vector<std::int64_t> days;  // ascending day indices with matches
  std::vector<AggState> states;    // [day_idx * naggs + agg]
};

/// A serializable shard answer: per-tuple day partials plus this shard's
/// scan accounting. `key_schema` fixes the output key columns; every shard
/// of a federation must agree on it (same table schema).
struct Partial {
  QueryStats stats;
  std::vector<std::pair<std::string, ColType>> key_schema;
  std::size_t naggs = 0;
  std::vector<TuplePartial> tuples;
};

/// Coordinator-side merge: union tuples across shards by exact key values
/// (day lists merge; a day present in two partials — a placement that split
/// a cell — left-folds in `parts` order, deterministically), order tuples
/// and groups by ascending rank, fold, and emit the "_agg" result table.
/// `stats`, when non-null, receives the field-wise sum of the shard stats.
/// Throws InvalidArgument on empty input or mismatched key schemas / agg
/// counts between shards.
[[nodiscard]] Table merge_partials(std::span<const Partial> parts,
                                   const std::vector<AggSpec>& aggs,
                                   const std::string& out_name,
                                   QueryStats* stats = nullptr);

}  // namespace supremm::warehouse::partial
