// Per-shard query executor: one shard's slice of the jobs realm plus the
// engine that answers compiled QuerySpecs with partial aggregates, folded
// as far as the coordinator asks (DESIGN.md §17).
//
// A shard is the embedded warehouse in miniature: it owns its jobs table
// (augmented and zone-indexed like Service::publish_jobs does), optionally
// materializes its own RollupSet, and answers the same request language —
// but it stops at the partial-aggregate boundary (warehouse/partial.h)
// instead of emitting a final table, because the coordinator owns the
// cross-shard merge. It starts from day cells and then runs as many of the
// merge's own stages (partial::fold_to) as the requested level names: the
// coordinator asks for tuple or group totals only when the catalog proves
// this shard owns every row of those units. When its RollupSet subsumes a
// query, the shard reads rollup cells instead of scanning: level-0 (day)
// cells for a day-level answer — a day cell IS the micro-cell of the raw
// contract — and the plan's coarsest level for a folded one, whose tree
// fold reproduces the day fold bit for bit (§16).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "federation/catalog.h"
#include "federation/wire.h"
#include "service/request.h"
#include "warehouse/rollup.h"
#include "warehouse/table.h"

namespace supremm::federation {

class ShardExecutor {
 public:
  struct Options {
    bool rollups = true;            // materialize a RollupSet for this shard
    std::string rank_column = "job_id";
  };

  /// Takes ownership of the shard's slice of the jobs table (raw or already
  /// augmented); augments, zone-indexes and (optionally) rolls it up.
  ShardExecutor(std::string name, warehouse::Table jobs, Options opts);
  ShardExecutor(std::string name, warehouse::Table jobs);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const warehouse::Table& jobs() const noexcept { return jobs_; }
  [[nodiscard]] bool has_rollups() const noexcept { return rollups_ != nullptr; }

  /// Catalog entry derived from the shard's rows: its cluster dictionary
  /// and inclusive end-day bounds. An empty shard gets an empty day range
  /// (day_lo > day_hi), so catalogs prune it from every bounded query.
  [[nodiscard]] ShardInfo info() const;

  /// Execute a compiled spec against this shard, returning the partial
  /// folded to `level` (day cells by default). deadline_ms == 0 means no
  /// deadline. Throws common::Cancelled when the deadline trips,
  /// InvalidArgument / NotFoundError for a spec this shard cannot serve
  /// (wrong table, unknown column). Stats follow the path taken: a raw scan
  /// reports the engine's accounting, a rollup-served answer the level rows
  /// it read (rows_scanned) and selected (rows_matched), as rollup::serve.
  [[nodiscard]] wire::PartialMsg execute(
      const service::QuerySpec& spec, std::uint32_t deadline_ms,
      const std::string& rank_column,
      warehouse::partial::Level level = warehouse::partial::Level::kDays) const;

  /// The shard daemon's request handler: a hello + query conversation in,
  /// a hello-ack + partial (or error) conversation out. Never throws — every
  /// failure, including protocol version mismatch and malformed frames,
  /// becomes a well-formed Error frame with the sourced message.
  [[nodiscard]] std::string serve(std::string_view request) const;

 private:
  [[nodiscard]] wire::PartialMsg rollup_partial(const warehouse::rollup::Plan& plan,
                                                warehouse::partial::Level level) const;

  std::string name_;
  warehouse::Table jobs_;
  std::unique_ptr<warehouse::rollup::RollupSet> rollups_;
  Options opts_;
};

}  // namespace supremm::federation
