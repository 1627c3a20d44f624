#include "federation/federation.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <thread>

#include "common/error.h"
#include "federation/wire.h"
#include "warehouse/partial.h"

namespace supremm::federation {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One shard's gathered answer: the report the service aggregates into its
/// metrics plus (on kOk) the partial to merge.
struct Gathered {
  service::RemoteShardReport report;
  std::optional<wire::PartialMsg> partial;
};

/// Parse one response conversation (hello-ack + partial | error). Throws
/// ParseError on malformed bytes; returns the error frame's content through
/// `err` when the shard answered with a well-formed failure.
std::optional<wire::PartialMsg> parse_response(std::string_view resp, wire::ErrorMsg* err) {
  std::size_t offset = 0;
  const wire::Frame ack = wire::read_frame(resp, offset);
  if (ack.type != wire::MsgType::kHelloAck) {
    throw common::ParseError("wire: expected hello-ack frame, got type " +
                             std::to_string(static_cast<int>(ack.type)));
  }
  (void)wire::unpack_hello_ack(ack.payload);
  const wire::Frame body = wire::read_frame(resp, offset);
  if (offset != resp.size()) {
    throw common::ParseError("wire: trailing bytes after response conversation");
  }
  if (body.type == wire::MsgType::kError) {
    *err = wire::unpack_error(body.payload);
    return std::nullopt;
  }
  if (body.type != wire::MsgType::kPartial) {
    throw common::ParseError("wire: expected partial or error frame, got type " +
                             std::to_string(static_cast<int>(body.type)));
  }
  return wire::unpack_partial(body.payload);
}

}  // namespace

void Federation::add_shard(ShardInfo info, std::shared_ptr<Transport> transport) {
  if (transport == nullptr) {
    throw common::InvalidArgument("Federation::add_shard: null transport");
  }
  catalog_.add(std::move(info));
  transports_.push_back(std::move(transport));
}

service::RemoteResult Federation::run(const service::QuerySpec& spec) const {
  if (catalog_.size() == 0) {
    throw common::InvalidArgument("federation has no shards");
  }
  if (spec.table != cfg_.table) {
    throw common::InvalidArgument("federation serves table '" + cfg_.table +
                                  "', not '" + spec.table + "'");
  }

  std::vector<std::size_t> contacted = catalog_.prune(spec);
  // Every shard provably irrelevant: still ask one, so the empty answer
  // carries the real output schema (the executor's scan selects nothing).
  if (contacted.empty()) contacted.push_back(0);
  const std::vector<warehouse::partial::Level> levels = catalog_.levels(spec, contacted);

  // One request conversation per fold level in use; shards asked for the
  // same level get the same bytes.
  std::array<std::string, 3> requests;
  for (const warehouse::partial::Level level : levels) {
    std::string& request = requests[static_cast<std::size_t>(level)];
    if (!request.empty()) continue;
    request = wire::frame(wire::MsgType::kHello, wire::pack_hello({cfg_.client})) +
              wire::frame(wire::MsgType::kQuery,
                          wire::pack_query({spec, cfg_.shard_deadline_ms,
                                            cfg_.rank_column, level}));
  }

  // Scatter: one thread per contacted shard. Transports own their blocking
  // I/O; the per-shard deadline rides inside exchange().
  std::vector<Gathered> gathered(contacted.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(contacted.size());
    for (std::size_t i = 0; i < contacted.size(); ++i) {
      threads.emplace_back([this, &requests, &levels, &gathered, &contacted, i] {
        const std::size_t shard_idx = contacted[i];
        const warehouse::partial::Level asked = levels[i];
        Gathered& g = gathered[i];
        g.report.shard = catalog_.shards()[shard_idx].name;
        const Clock::time_point t0 = Clock::now();
        try {
          const std::string resp = transports_[shard_idx]->exchange(
              requests[static_cast<std::size_t>(asked)], cfg_.shard_deadline_ms);
          g.report.bytes = resp.size();
          wire::ErrorMsg err;
          if (auto partial = parse_response(resp, &err)) {
            // Folding past the asked level would merge rows the catalog
            // does not prove this shard owns.
            if (partial->partial.level > asked) {
              throw common::ParseError(
                  std::string("wire: shard folded to ") +
                  warehouse::partial::to_string(partial->partial.level) +
                  ", coordinator asked for " + warehouse::partial::to_string(asked));
            }
            g.report.outcome = service::RemoteShardReport::Outcome::kOk;
            g.report.rollup_served = partial->rollup_served;
            g.report.level = partial->partial.level;
            g.report.stats = partial->partial.stats;
            g.partial = std::move(partial);
          } else if (err.timeout) {
            g.report.outcome = service::RemoteShardReport::Outcome::kTimedOut;
            g.report.error = err.message;
          } else {
            g.report.outcome = service::RemoteShardReport::Outcome::kError;
            g.report.error = err.message;
          }
        } catch (const common::Cancelled& e) {
          g.report.outcome = service::RemoteShardReport::Outcome::kTimedOut;
          g.report.error = e.what();
        } catch (const std::exception& e) {
          g.report.outcome = service::RemoteShardReport::Outcome::kError;
          g.report.error = e.what();
        }
        g.report.ms = ms_since(t0);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Gather in catalog order: merge order must not depend on which shard
  // answered first (merge_partials left-folds duplicate days in parts
  // order, and the report list is part of the metrics contract).
  std::vector<warehouse::partial::Partial> parts;
  std::vector<std::string> failures;
  service::RemoteResult out;
  std::vector<bool> was_contacted(catalog_.size(), false);
  for (std::size_t i = 0; i < contacted.size(); ++i) {
    was_contacted[contacted[i]] = true;
    Gathered& g = gathered[i];
    if (g.partial.has_value()) {
      parts.push_back(std::move(g.partial->partial));
    } else {
      failures.push_back(g.report.shard + " (" +
                         service::to_string(g.report.outcome) + ": " + g.report.error +
                         ")");
    }
    out.shards.push_back(std::move(g.report));
  }
  for (std::size_t s = 0; s < catalog_.size(); ++s) {
    if (was_contacted[s]) continue;
    service::RemoteShardReport pruned;
    pruned.shard = catalog_.shards()[s].name;
    pruned.outcome = service::RemoteShardReport::Outcome::kPruned;
    out.shards.push_back(std::move(pruned));
  }

  if (parts.empty()) {
    std::string msg = "federated scatter failed at every contacted shard: ";
    for (std::size_t f = 0; f < failures.size(); ++f) {
      if (f > 0) msg += "; ";
      msg += failures[f];
    }
    throw common::IoError(msg);
  }
  out.complete = failures.empty();
  if (!out.complete && !cfg_.allow_partial) {
    std::string msg = "federated scatter lost shards (allow_partial=false): ";
    for (std::size_t f = 0; f < failures.size(); ++f) {
      if (f > 0) msg += "; ";
      msg += failures[f];
    }
    throw common::IoError(msg);
  }

  out.table = std::make_shared<const warehouse::Table>(warehouse::partial::merge_partials(
      parts, spec.aggs, cfg_.table + "_agg", &out.stats));
  return out;
}

}  // namespace supremm::federation
