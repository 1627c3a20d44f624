// The embedded query/report service (DESIGN.md §13).
//
// The paper's warehouse is consumed through a web portal by many concurrent
// stakeholders (§4.3); this module is the C++ stand-in for that serving
// tier. A Service owns an immutable snapshot of the published data (named
// warehouse tables plus the XDMoD jobs realm), a bounded worker pool, and a
// watermark-keyed LRU result cache. Clients open lightweight Sessions and
// submit requests in the textual request language (request.h); each submit
// returns a Ticket that can be waited on or cancelled.
//
// Admission and fairness: all sessions feed one global FIFO queue served by
// `workers` threads, so requests execute in arrival order regardless of
// which client sent them. When the queue holds `queue_limit` pending
// requests, new submits are rejected immediately (Status::kRejected) instead
// of building unbounded backlog. Every request carries a deadline (the
// config default unless the submit overrides it); the deadline is checked
// when the request is dequeued (Status::kTimedOut without running) and then
// cooperatively during execution via the CancelToken plumbed into the
// warehouse executor's chunk/segment safe points.
//
// Caching: responses that complete with Status::kOk are stored in the LRU
// cache under "<canonical text>#<epoch>". The epoch is bumped by every
// publish_* call and by every archive append (bind_archive subscribes to
// Archive::on_append), so a cached answer can only ever be served against
// the exact data state that produced it — cache hits are bit-identical to
// fresh runs by construction, which the service test suite asserts with the
// testkit's table-identity oracle.
//
// Consistency: a request binds to the snapshot current at submit time. A
// publish during execution does not disturb in-flight requests (snapshots
// are immutable and shared_ptr-held); their responses are simply cached
// under the old epoch, where no future lookup will find them.
//
// Graceful degradation (DESIGN.md §14): when an archive-triggered republish
// fails — the load throws, or partitions come back quarantined after an
// append — the service keeps the last good snapshot and enters degraded
// mode instead of erroring: every response (cache hit or fresh run against
// the retained snapshot) is served with Status::kStale, explicitly flagging
// that the data predates the failed republish, and metrics expose the
// degraded flag plus a stale_served counter. Republish is retried with
// bounded exponential backoff on the submit path (at most
// stale_retry_limit attempts) and on explicit refresh(); the first success
// publishes the fresh snapshot and clears stale mode.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "archive/archive.h"
#include "common/cancel.h"
#include "common/time.h"
#include "etl/job_summary.h"
#include "service/cache.h"
#include "service/request.h"
#include "warehouse/partial.h"
#include "warehouse/query.h"
#include "warehouse/table.h"
#include "xdmod/realm.h"

namespace supremm::service {

struct ServiceConfig {
  /// Worker threads executing requests (the serving parallelism; each
  /// request may additionally use its own `threads` setting inside the
  /// warehouse executor).
  int workers = 2;
  /// Pending requests admitted before submits are rejected.
  int queue_limit = 64;
  /// LRU result-cache capacity in entries; 0 disables caching.
  int cache_entries = 128;
  /// Default per-request deadline, applied when a submit does not override.
  std::int64_t default_deadline_ms = 30'000;
  /// Bounded republish retries while degraded: at most this many automatic
  /// re-attempts (submit-path, backoff-spaced) before only an explicit
  /// refresh() can recover. 0 disables automatic retry.
  int stale_retry_limit = 3;
  /// Base backoff between automatic republish retries; doubles per failed
  /// attempt (50, 100, 200, ... ms).
  std::int64_t stale_retry_backoff_ms = 50;
  /// Maintain rollup tables on publish and serve subsumable jobs queries
  /// from them (DESIGN.md §16). Disabling skips the build and the serving
  /// path — every query runs the raw scan. The jobs table is augmented and
  /// time-partitioned either way, so the query surface (bucket columns) and
  /// the aggregation contract — hence every result — are identical.
  /// SUPREMM_ROLLUP=off additionally disables serving at runtime without
  /// rebuilding snapshots.
  bool rollups = true;

  /// Throws InvalidArgument naming the offending field: workers, queue_limit,
  /// default_deadline_ms and stale_retry_backoff_ms must be positive;
  /// cache_entries and stale_retry_limit non-negative.
  void validate() const;
};

enum class Status : std::uint8_t {
  kOk,         // result table attached
  kRejected,   // admission queue full; never executed
  kTimedOut,   // deadline expired (in queue or mid-execution)
  kCancelled,  // Ticket::cancel() observed (in queue or mid-execution)
  kError,      // parse error, unknown table/column, service stopped, ...
  kStale,      // result table attached, but served from the retained
               // pre-failure snapshot while the service is degraded
  kPartial,    // federated result table attached, but one or more shards
               // timed out or errored; the error field names them
};
[[nodiscard]] const char* to_string(Status s);

/// The outcome of one request. Immutable once published to the Ticket.
struct Response {
  Status status = Status::kError;
  std::string client;
  std::string canonical;  // canonical request text; empty if parsing failed
  std::string error;      // diagnostic for non-kOk statuses
  bool cache_hit = false;
  std::uint64_t epoch = 0;             // snapshot the request bound to
  common::TimePoint watermark = 0;     // that snapshot's ingest watermark
  std::shared_ptr<const warehouse::Table> table;  // kOk / kStale only
  warehouse::QueryStats stats;  // kOk/kStale query path (zero for reports/hits)
  double queue_ms = 0.0;  // submit -> dequeue (0 for immediate responses)
  double exec_ms = 0.0;   // dequeue -> finished
  double total_ms = 0.0;  // submit -> finished
};
using ResponsePtr = std::shared_ptr<const Response>;

struct Job;  // internal; defined in service.cpp

/// Handle to one in-flight request. Copyable; all copies share the request.
class Ticket {
 public:
  Ticket() = default;

  /// Block until the response is ready. Never throws on request failure —
  /// failures are Status values. Calling wait() on a default-constructed
  /// Ticket throws InvalidArgument.
  [[nodiscard]] ResponsePtr wait() const;

  /// Request cooperative cancellation: takes effect at the next queue or
  /// executor safe point. No-op once the response is ready.
  void cancel();

 private:
  friend class Service;
  explicit Ticket(std::shared_ptr<Job> job) : job_(std::move(job)) {}
  std::shared_ptr<Job> job_;
};

class Service;

/// A client's handle on the service: a name for metrics/diagnostics plus
/// submit convenience. Sessions are cheap value types; the Service must
/// outlive every Session it issued.
class Session {
 public:
  /// Submit one request. `deadline_ms` overrides the config default
  /// (0 = use default; negative throws InvalidArgument). Never blocks on
  /// execution: queue-full, parse errors and cache hits resolve the Ticket
  /// immediately.
  Ticket submit(std::string_view text, std::int64_t deadline_ms = 0);

  /// submit() + wait().
  ResponsePtr run(std::string_view text, std::int64_t deadline_ms = 0);

  [[nodiscard]] const std::string& client() const noexcept { return client_; }

 private:
  friend class Service;
  Session(Service* svc, std::string client)
      : service_(svc), client_(std::move(client)) {}
  Service* service_;
  std::string client_;
};

// ---------------------------------------------------------------------------
// Federation seam (DESIGN.md §17)
//
// The service stays ignorant of shard catalogs, wire formats and transports:
// a bound RemoteExecutor claims one table name and answers compiled
// QuerySpecs for it with an already-merged result table plus per-shard
// accounting. federation::Federation is the production implementation; the
// inversion keeps the dependency arrow federation -> service.

/// What happened at one shard of a federated scatter-gather.
struct RemoteShardReport {
  enum class Outcome : std::uint8_t {
    kOk,        // partial received and merged
    kPruned,    // catalog bounds excluded the shard; never contacted
    kTimedOut,  // per-shard deadline expired (transport or executor)
    kError,     // transport/protocol/executor failure; see `error`
  };
  std::string shard;
  Outcome outcome = Outcome::kOk;
  bool rollup_served = false;   // shard answered from its RollupSet
  /// How far the shard folded its answer (kOk only): day cells, tuple
  /// totals or group totals.
  warehouse::partial::Level level = warehouse::partial::Level::kDays;
  std::size_t bytes = 0;        // response conversation bytes received
  std::string error;            // sourced diagnostic for kTimedOut/kError
  warehouse::QueryStats stats;  // shard-side scan accounting (kOk only)
  double ms = 0.0;              // exchange wall time (0 when pruned)
};
[[nodiscard]] const char* to_string(RemoteShardReport::Outcome o);

/// A merged federated answer. `complete` is false when any contacted shard
/// failed; the table then covers only the shards that answered.
struct RemoteResult {
  std::shared_ptr<const warehouse::Table> table;
  bool complete = true;
  warehouse::QueryStats stats;            // summed over merged shard partials
  std::vector<RemoteShardReport> shards;  // catalog order, pruned included
};

class RemoteExecutor {
 public:
  virtual ~RemoteExecutor() = default;
  /// The one table name this executor serves (queries against other tables
  /// keep using the local snapshot).
  [[nodiscard]] virtual const std::string& table_name() const = 0;
  /// Scatter the spec, gather and merge. Throws when no shard answered
  /// (the service responds kError); degrades to complete=false when some did.
  [[nodiscard]] virtual RemoteResult run(const QuerySpec& spec) const = 0;
};

/// Power-of-two-bucketed latency histogram (microsecond buckets). quantile()
/// returns the upper bound of the bucket holding that rank — an upper bound
/// on the true quantile, within 2x of it.
class LatencyHistogram {
 public:
  void add(double ms);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean_ms() const noexcept {
    return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_);
  }
  [[nodiscard]] double max_ms() const noexcept { return max_ms_; }
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  static constexpr std::size_t kBuckets = 40;  // bucket i: [2^(i-1), 2^i) us
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// Point-in-time service counters; to_json() renders the export format.
struct ServiceMetrics {
  std::uint64_t epoch = 0;
  std::uint64_t submitted = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t completed = 0;  // Status::kOk responses (incl. cache hits)
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  std::uint64_t stale_served = 0;        // responses flagged Status::kStale
  std::uint64_t republish_failures = 0;  // failed archive republish attempts
  bool degraded = false;                 // serving the retained stale snapshot
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  bool rollups_enabled = false;        // snapshot has rollups and serving is on
  std::uint64_t rollup_hits = 0;       // queries answered from rollup cells
  std::uint64_t rollup_misses = 0;     // jobs queries that fell back to a scan
  std::uint64_t rollup_rebuilds = 0;   // snapshots whose rollups were rebuilt
                                       // from the jobs table (archive had none)
  std::size_t rollup_cells = 0;        // cells across the snapshot's levels
  bool federation_bound = false;       // a RemoteExecutor is installed
  std::uint64_t federated = 0;         // queries routed to the remote executor
  std::uint64_t federated_partial = 0; // degraded federated answers (kPartial)
  /// Aggregated per-shard outcome counters, keyed by shard name.
  struct ShardCounters {
    std::uint64_t ok = 0;
    std::uint64_t pruned = 0;
    std::uint64_t rollup_served = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t errors = 0;
    /// kOk answers per applied fold level, indexed by partial::Level
    /// (days, tuples, groups).
    std::array<std::uint64_t, 3> levels{};
    std::uint64_t bytes = 0;  // response bytes received
    double total_ms = 0.0;
  };
  std::map<std::string, ShardCounters> shards;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  LatencyHistogram queue_wait_ms;
  LatencyHistogram exec_ms;
  LatencyHistogram total_ms;
};
[[nodiscard]] std::string to_json(const ServiceMetrics& m);

class Service {
 public:
  /// Validates the config and starts the worker pool.
  explicit Service(ServiceConfig cfg);

  /// Drains: workers finish every already-queued request (cancelled or
  /// expired ones resolve fast at their dequeue check) before joining.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Publish a new immutable snapshot of named tables (no jobs realm, so
  /// `report` requests will fail until publish_jobs/bind_archive). Bumps the
  /// epoch; in-flight requests keep their old snapshot.
  void publish_tables(std::map<std::string, warehouse::Table> tables,
                      common::TimePoint watermark = 0);

  /// Publish job summaries: builds the lossless "jobs" table (zone-indexed)
  /// and the XDMoD jobs realm for `report` requests. Bumps the epoch. Jobs
  /// are canonicalized to ascending-id order first (the order Archive::load
  /// restores), so callers may pass them in any order.
  void publish_jobs(std::vector<etl::JobSummary> jobs,
                    common::TimePoint watermark = 0);

  /// Load the archive ("jobs", "series" and "data_quality" tables plus the
  /// jobs realm, watermark from the manifest) and subscribe to
  /// Archive::on_append so every append republishes automatically — the
  /// append invalidates all cached results by bumping the epoch. The archive
  /// must outlive this service.
  void bind_archive(archive::Archive& ar);

  /// Route queries against `remote->table_name()` through a federated
  /// executor instead of the local snapshot. Complete answers behave exactly
  /// like local kOk responses (cached under the current epoch, kStale while
  /// degraded); incomplete ones respond Status::kPartial and are never
  /// cached. Publishes an empty snapshot if nothing was published yet, so a
  /// purely-federated service admits queries. Passing nullptr unbinds.
  void bind_remote(std::shared_ptr<const RemoteExecutor> remote);

  /// Epoch of the current snapshot (0 = nothing published yet).
  [[nodiscard]] std::uint64_t epoch() const;

  /// Is the service serving the retained stale snapshot because the last
  /// archive republish failed?
  [[nodiscard]] bool degraded() const;

  /// Explicitly re-attempt the archive republish (no-op unless bound to an
  /// archive). Returns true if the service is healthy afterwards; a success
  /// clears degraded mode and resets the automatic-retry budget.
  bool refresh();

  [[nodiscard]] Session session(std::string client) {
    return Session(this, std::move(client));
  }

  [[nodiscard]] ServiceMetrics metrics() const;
  /// metrics() rendered as a JSON object.
  [[nodiscard]] std::string metrics_json() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  friend class Session;
  friend struct Job;
  struct Snapshot;  // defined in service.cpp

  Ticket submit(const std::string& client, std::string_view text,
                std::int64_t deadline_ms);
  void worker_loop();
  void execute(Job& job);
  void finish(Job& job, Response r);
  void publish_snapshot(std::shared_ptr<Snapshot> snap);
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;
  /// One republish attempt; on failure records it and (re)enters degraded
  /// mode. Returns true when the service is healthy afterwards.
  bool try_republish();
  /// Submit-path retry gate: attempt a republish only while degraded, within
  /// the bounded retry budget, and past the current backoff window.
  void maybe_retry_republish();

  ServiceConfig cfg_;
  ResultCache cache_;

  mutable std::mutex snap_mu_;
  std::shared_ptr<const Snapshot> snap_;
  std::uint64_t epoch_ = 0;  // guarded by snap_mu_
  std::shared_ptr<const RemoteExecutor> remote_;  // guarded by snap_mu_

  mutable std::mutex degraded_mu_;  // guards the republish/degraded state
  std::function<void()> republish_;  // set by bind_archive; throws on failure
  bool degraded_ = false;
  std::string degraded_reason_;
  int retries_used_ = 0;
  std::chrono::steady_clock::time_point next_retry_{};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;  // guarded by queue_mu_
  std::size_t queue_peak_ = 0;              // guarded by queue_mu_
  bool stopping_ = false;                   // guarded by queue_mu_

  mutable std::mutex metrics_mu_;
  ServiceMetrics counters_;  // histograms + counts, guarded by metrics_mu_

  std::vector<std::thread> workers_;
};

}  // namespace supremm::service
