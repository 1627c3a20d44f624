// The scatter-gather coordinator (DESIGN.md §17): the service-side planner
// that turns one compiled QuerySpec into per-shard conversations and merges
// the shard partials back into the exact table a single warehouse would
// have produced.
//
// Federation implements service::RemoteExecutor, so a Service routes every
// query against `config().table` here with Service::bind_remote. The plan
// is fixed: prune shards by catalog bounds, pick each surviving shard's
// fold level from the catalog (Catalog::levels: day cells, tuple totals or
// group totals, by what the shard provably owns), scatter the request at
// that level to every surviving shard on its own thread (each transport
// carries the per-shard deadline), gather partials, merge with
// warehouse::partial::merge_partials. A partial folded further than asked
// is a protocol error for that shard. Shard failures degrade rather than
// fail: the merged answer covers the shards that responded and the result
// reports complete=false (the service responds Status::kPartial). Only a
// scatter with zero successful shards throws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "federation/catalog.h"
#include "federation/transport.h"
#include "service/service.h"

namespace supremm::federation {

class Federation final : public service::RemoteExecutor {
 public:
  struct Config {
    /// Table name this federation serves; queries against it route here.
    std::string table = "jobs";
    /// Unique ascending int64 column fixing cross-shard group order. The
    /// jobs realm is published ascending by job id, so the default
    /// reproduces single-warehouse first-seen order exactly.
    std::string rank_column = "job_id";
    /// Per-shard exchange deadline; 0 = no deadline.
    std::uint32_t shard_deadline_ms = 10'000;
    /// Serve a degraded (complete=false) answer when some shards fail.
    /// When false, any contacted-shard failure throws instead.
    bool allow_partial = true;
    /// Client name sent in the wire Hello.
    std::string client = "coordinator";
  };

  explicit Federation(Config cfg) : cfg_(std::move(cfg)) {}
  Federation() : Federation(Config{}) {}

  /// Register a shard: its catalog entry plus the transport that reaches
  /// its executor. Scatter order (and merge order) is registration order.
  void add_shard(ShardInfo info, std::shared_ptr<Transport> transport);

  [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // service::RemoteExecutor
  [[nodiscard]] const std::string& table_name() const override { return cfg_.table; }
  /// Prune, scatter, gather, merge. Throws InvalidArgument when the
  /// federation has no shards or the spec targets another table; throws
  /// common::Error when no shard delivered a partial (the per-shard errors
  /// are folded into the message).
  [[nodiscard]] service::RemoteResult run(const service::QuerySpec& spec) const override;

 private:
  Config cfg_;
  Catalog catalog_;
  std::vector<std::shared_ptr<Transport>> transports_;
};

}  // namespace supremm::federation
