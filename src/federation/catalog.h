// Shard catalog (DESIGN.md §17): which archives live where, and which can
// be skipped for a given query.
//
// A shard owns the jobs of a set of clusters over an inclusive day-index
// range — the (cluster, time-range) partitioning the paper's two-cluster
// deployment (Ranger + Lonestar4) generalizes to. Pruning is conservative:
// a shard is dropped only when the catalog bounds prove no row of it can
// match (cluster equality misses its cluster set, or the query's derived
// day window — widened a day on each side against double rounding — is
// disjoint from its day range). NaN bounds prune nothing: a NaN comparison
// matches no rows, but proving that is the executor's job, not the
// catalog's.
//
// The catalog also proves ownership, which decides how far each contacted
// shard may fold its partial (levels()). Every partial tuple carries its
// cluster, so a shard whose clusters no other contacted shard lists holds
// every row of each tuple it reports, and of each group when `cluster` is a
// group key. Anything weaker ships day cells, the only partial that stays
// exact when a cluster's cells are spread over several shards.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "service/request.h"
#include "warehouse/partial.h"

namespace supremm::federation {

/// Catalog entry for one shard.
struct ShardInfo {
  std::string name;
  /// Clusters whose jobs this shard owns; empty = unknown (never pruned by
  /// cluster).
  std::vector<std::string> clusters;
  /// Inclusive day-index bounds (end_day_index units) of the shard's rows.
  /// The defaults are effectively open.
  std::int64_t day_lo = std::numeric_limits<std::int64_t>::min() / 2;
  std::int64_t day_hi = std::numeric_limits<std::int64_t>::max() / 2;
};

class Catalog {
 public:
  void add(ShardInfo info) { shards_.push_back(std::move(info)); }
  [[nodiscard]] const std::vector<ShardInfo>& shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }

  /// Indices (catalog order) of the shards the query must be sent to. May
  /// be empty when every shard is provably irrelevant — the planner still
  /// contacts one shard so an empty result keeps the real output schema.
  [[nodiscard]] std::vector<std::size_t> prune(const service::QuerySpec& spec) const;

  /// The fold level each shard of `contacted` (prune()'s output) may answer
  /// at, parallel to it: group totals when it is the only shard contacted,
  /// or when no other contacted shard lists any of its clusters and
  /// `cluster` is a group key; tuple totals when no other contacted shard
  /// lists any of its clusters; day cells otherwise. A shard with an empty
  /// (unknown) cluster list owns nothing provably and makes no other shard
  /// exclusive either.
  [[nodiscard]] std::vector<warehouse::partial::Level> levels(
      const service::QuerySpec& spec, const std::vector<std::size_t>& contacted) const;

 private:
  std::vector<ShardInfo> shards_;
};

}  // namespace supremm::federation
