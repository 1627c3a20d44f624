#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <span>
#include <utility>

#include "archive/partition.h"
#include "archive/tables.h"
#include "common/error.h"
#include "common/strings.h"
#include "warehouse/rollup.h"

namespace supremm::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Config / status

void ServiceConfig::validate() const {
  if (workers <= 0) {
    throw common::InvalidArgument(
        common::strprintf("ServiceConfig.workers must be positive (got %d)", workers));
  }
  if (queue_limit <= 0) {
    throw common::InvalidArgument(common::strprintf(
        "ServiceConfig.queue_limit must be positive (got %d)", queue_limit));
  }
  if (cache_entries < 0) {
    throw common::InvalidArgument(common::strprintf(
        "ServiceConfig.cache_entries must be non-negative (got %d)", cache_entries));
  }
  if (default_deadline_ms <= 0) {
    throw common::InvalidArgument(common::strprintf(
        "ServiceConfig.default_deadline_ms must be positive (got %lld)",
        static_cast<long long>(default_deadline_ms)));
  }
  if (stale_retry_limit < 0) {
    throw common::InvalidArgument(common::strprintf(
        "ServiceConfig.stale_retry_limit must be non-negative (got %d)", stale_retry_limit));
  }
  if (stale_retry_backoff_ms <= 0) {
    throw common::InvalidArgument(common::strprintf(
        "ServiceConfig.stale_retry_backoff_ms must be positive (got %lld)",
        static_cast<long long>(stale_retry_backoff_ms)));
  }
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kTimedOut: return "timed_out";
    case Status::kCancelled: return "cancelled";
    case Status::kError: return "error";
    case Status::kStale: return "stale";
    case Status::kPartial: return "partial";
  }
  return "unknown";
}

const char* to_string(RemoteShardReport::Outcome o) {
  switch (o) {
    case RemoteShardReport::Outcome::kOk: return "ok";
    case RemoteShardReport::Outcome::kPruned: return "pruned";
    case RemoteShardReport::Outcome::kTimedOut: return "timed_out";
    case RemoteShardReport::Outcome::kError: return "error";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Latency histogram / metrics export

void LatencyHistogram::add(double ms) {
  ++count_;
  sum_ms_ += ms;
  max_ms_ = std::max(max_ms_, ms);
  const double us = ms * 1000.0;
  std::size_t b = 0;
  while (b + 1 < kBuckets && us >= static_cast<double>(std::uint64_t{1} << b)) ++b;
  ++counts_[b];
}

double LatencyHistogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count_)));
  rank = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // Upper edge of the bucket; for the overflow bucket the observed max
      // is the tightest bound we have.
      if (b + 1 == kBuckets) return max_ms_;
      return static_cast<double>(std::uint64_t{1} << b) / 1000.0;
    }
  }
  return max_ms_;
}

namespace {

std::string histogram_json(const LatencyHistogram& h) {
  return common::strprintf(
      "{\"count\":%llu,\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
      "\"max\":%.3f}",
      static_cast<unsigned long long>(h.count()), h.mean_ms(), h.quantile_ms(0.5),
      h.quantile_ms(0.9), h.quantile_ms(0.99), h.max_ms());
}

}  // namespace

std::string to_json(const ServiceMetrics& m) {
  std::string out = "{";
  out += common::strprintf(
      "\"epoch\":%llu,\"submitted\":%llu,\"parse_errors\":%llu,"
      "\"completed\":%llu,\"rejected\":%llu,\"timed_out\":%llu,"
      "\"cancelled\":%llu,\"errors\":%llu,",
      static_cast<unsigned long long>(m.epoch),
      static_cast<unsigned long long>(m.submitted),
      static_cast<unsigned long long>(m.parse_errors),
      static_cast<unsigned long long>(m.completed),
      static_cast<unsigned long long>(m.rejected),
      static_cast<unsigned long long>(m.timed_out),
      static_cast<unsigned long long>(m.cancelled),
      static_cast<unsigned long long>(m.errors));
  out += common::strprintf(
      "\"degraded\":%s,\"stale_served\":%llu,\"republish_failures\":%llu,",
      m.degraded ? "true" : "false", static_cast<unsigned long long>(m.stale_served),
      static_cast<unsigned long long>(m.republish_failures));
  out += common::strprintf(
      "\"cache\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
      "\"entries\":%zu},",
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.cache_misses),
      static_cast<unsigned long long>(m.cache_evictions), m.cache_entries);
  out += common::strprintf(
      "\"rollup\":{\"enabled\":%s,\"hits\":%llu,\"misses\":%llu,"
      "\"rebuilds\":%llu,\"cells\":%zu},",
      m.rollups_enabled ? "true" : "false",
      static_cast<unsigned long long>(m.rollup_hits),
      static_cast<unsigned long long>(m.rollup_misses),
      static_cast<unsigned long long>(m.rollup_rebuilds), m.rollup_cells);
  out += common::strprintf(
      "\"federation\":{\"bound\":%s,\"queries\":%llu,\"partial\":%llu,"
      "\"shards\":{",
      m.federation_bound ? "true" : "false",
      static_cast<unsigned long long>(m.federated),
      static_cast<unsigned long long>(m.federated_partial));
  bool first_shard = true;
  for (const auto& [name, s] : m.shards) {
    if (!first_shard) out += ",";
    first_shard = false;
    out += common::strprintf(
        "\"%s\":{\"ok\":%llu,\"pruned\":%llu,\"rollup_served\":%llu,"
        "\"timeouts\":%llu,\"errors\":%llu,"
        "\"levels\":{\"days\":%llu,\"tuples\":%llu,\"groups\":%llu},"
        "\"bytes\":%llu,\"total_ms\":%.3f}",
        name.c_str(), static_cast<unsigned long long>(s.ok),
        static_cast<unsigned long long>(s.pruned),
        static_cast<unsigned long long>(s.rollup_served),
        static_cast<unsigned long long>(s.timeouts),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.levels[0]),
        static_cast<unsigned long long>(s.levels[1]),
        static_cast<unsigned long long>(s.levels[2]),
        static_cast<unsigned long long>(s.bytes), s.total_ms);
  }
  out += "}},";
  out += common::strprintf("\"queue\":{\"depth\":%zu,\"peak\":%zu},",
                           m.queue_depth, m.queue_peak);
  out += "\"latency_ms\":{\"queue_wait\":" + histogram_json(m.queue_wait_ms) +
         ",\"exec\":" + histogram_json(m.exec_ms) +
         ",\"total\":" + histogram_json(m.total_ms) + "}";
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// Internal job / snapshot

struct Service::Snapshot {
  std::uint64_t epoch = 0;
  common::TimePoint watermark = 0;
  std::map<std::string, std::shared_ptr<const warehouse::Table>> tables;
  std::shared_ptr<const xdmod::JobsRealm> realm;  // null until jobs published
  // Materialized day/week/month/quarter rollups over the published jobs
  // table (null when cfg.rollups is off or only publish_tables was used).
  std::shared_ptr<const warehouse::rollup::RollupSet> rollups;
};

struct Job {
  std::string client;
  Request request;
  std::string canonical;
  std::string cache_key;
  bool stale = false;  // submitted while degraded: respond kStale, not kOk
  std::shared_ptr<const Service::Snapshot> snap;
  common::CancelToken token;
  Clock::time_point submitted;
  std::promise<ResponsePtr> promise;
  std::shared_future<ResponsePtr> future;
};

ResponsePtr Ticket::wait() const {
  if (!job_) throw common::InvalidArgument("Ticket::wait on empty ticket");
  return job_->future.get();
}

void Ticket::cancel() {
  if (job_) job_->token.cancel();
}

Ticket Session::submit(std::string_view text, std::int64_t deadline_ms) {
  return service_->submit(client_, text, deadline_ms);
}

ResponsePtr Session::run(std::string_view text, std::int64_t deadline_ms) {
  return submit(text, deadline_ms).wait();
}

// ---------------------------------------------------------------------------
// Service

Service::Service(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(static_cast<std::size_t>(std::max(cfg.cache_entries, 0))) {
  cfg_.validate();
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() {
  {
    std::lock_guard lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Service::publish_snapshot(std::shared_ptr<Snapshot> snap) {
  std::lock_guard lock(snap_mu_);
  snap->epoch = ++epoch_;
  snap_ = std::move(snap);
}

std::shared_ptr<const Service::Snapshot> Service::snapshot() const {
  std::lock_guard lock(snap_mu_);
  return snap_;
}

std::uint64_t Service::epoch() const {
  std::lock_guard lock(snap_mu_);
  return epoch_;
}

void Service::publish_tables(std::map<std::string, warehouse::Table> tables,
                             common::TimePoint watermark) {
  auto snap = std::make_shared<Snapshot>();
  snap->watermark = watermark;
  for (auto& [name, table] : tables) {
    snap->tables.emplace(name,
                         std::make_shared<const warehouse::Table>(std::move(table)));
  }
  publish_snapshot(std::move(snap));
}

void Service::publish_jobs(std::vector<etl::JobSummary> jobs,
                           common::TimePoint watermark) {
  auto snap = std::make_shared<Snapshot>();
  snap->watermark = watermark;
  // Canonical row order is ascending job id — the order Archive::load
  // restores. Rollup serving emits groups and merges sub-tuples by min job
  // id, so an unsorted publish would diverge from the raw scan in row order
  // (and fold order, hence float bits) for the same data.
  std::sort(jobs.begin(), jobs.end(),
            [](const etl::JobSummary& a, const etl::JobSummary& b) { return a.id < b.id; });
  warehouse::Table jt = archive::jobs_table(jobs);
  // Bucket columns and the time partition are part of the query surface and
  // fix the aggregation contract; they do not depend on whether rollups are
  // built, so cfg_.rollups gates only the build (a null snap->rollups then
  // disables serving) and results stay identical either way.
  warehouse::rollup::augment_jobs_table(jt);
  if (cfg_.rollups) {
    snap->rollups = std::make_shared<const warehouse::rollup::RollupSet>(
        warehouse::rollup::build_from_table(jt));
  }
  jt.rebuild_zone_index(archive::kDefaultChunkRows);
  snap->tables.emplace(archive::kJobsTable,
                       std::make_shared<const warehouse::Table>(std::move(jt)));
  snap->realm = std::make_shared<const xdmod::JobsRealm>(
      std::span<const etl::JobSummary>(jobs));
  publish_snapshot(std::move(snap));
}

void Service::bind_archive(archive::Archive& ar) {
  if (!ar.exists()) {
    throw common::NotFoundError("bind_archive: archive '" + ar.dir() +
                                "' is empty");
  }
  const auto republish = [this, &ar] {
    const archive::LoadResult loaded = ar.load();
    // Once a good snapshot is being served, a load that had to quarantine
    // partitions is a degraded source — keep serving the retained snapshot
    // in stale mode rather than publishing a partial view over it. (With
    // nothing published yet, partial data beats no data: first bind
    // publishes whatever loads, quarantines and all.)
    if (!loaded.quarantined.empty() && snapshot() != nullptr) {
      throw common::ArchiveError(common::strprintf(
          "republish from '%s' quarantined %zu partitions; retaining previous snapshot",
          ar.dir().c_str(), loaded.quarantined.size()));
    }
    auto snap = std::make_shared<Snapshot>();
    snap->watermark = ar.watermark();
    warehouse::Table jt = archive::jobs_table(loaded.result.jobs);
    warehouse::rollup::augment_jobs_table(jt);
    if (cfg_.rollups) {
      // Prefer the archive's incrementally maintained cells; an archive that
      // predates rollups (or whose rollup partitions failed verification)
      // falls back to a from-scratch build over the loaded jobs. A load that
      // quarantined partitions publishes a *partial* jobs table, while the
      // maintained cells were folded from the full pre-corruption data —
      // serving them would disagree with the raw scan over the very table
      // being published, so rebuild from what actually loaded instead.
      std::optional<warehouse::rollup::RollupSet> maintained;
      if (loaded.quarantined.empty()) maintained = ar.load_rollups();
      if (maintained) {
        snap->rollups = std::make_shared<const warehouse::rollup::RollupSet>(
            std::move(*maintained));
      } else {
        snap->rollups = std::make_shared<const warehouse::rollup::RollupSet>(
            warehouse::rollup::build_from_table(jt));
        std::lock_guard mlock(metrics_mu_);
        ++counters_.rollup_rebuilds;
      }
    }
    jt.rebuild_zone_index(archive::kDefaultChunkRows);
    snap->tables.emplace(archive::kJobsTable,
                         std::make_shared<const warehouse::Table>(std::move(jt)));
    warehouse::Table st = archive::series_table(loaded.result.series);
    st.rebuild_zone_index(archive::kDefaultChunkRows);
    snap->tables.emplace(archive::kSeriesTable,
                         std::make_shared<const warehouse::Table>(std::move(st)));
    warehouse::Table qt = archive::quality_to_table(loaded.result.quality);
    qt.rebuild_zone_index(archive::kDefaultChunkRows);
    snap->tables.emplace(archive::kQualityTable,
                         std::make_shared<const warehouse::Table>(std::move(qt)));
    snap->realm = std::make_shared<const xdmod::JobsRealm>(
        std::span<const etl::JobSummary>(loaded.result.jobs));
    publish_snapshot(std::move(snap));
  };
  {
    std::lock_guard lock(degraded_mu_);
    republish_ = republish;
  }
  republish();  // initial bind: failures propagate to the caller
  // Appends republish through the degradation guard: a failure retains the
  // pre-append snapshot and flips the service into stale mode instead of
  // throwing into the archive writer.
  ar.on_append([this](const archive::Manifest&) { try_republish(); });
}

void Service::bind_remote(std::shared_ptr<const RemoteExecutor> remote) {
  bool need_snapshot = false;
  {
    std::lock_guard lock(snap_mu_);
    remote_ = std::move(remote);
    need_snapshot = remote_ != nullptr && snap_ == nullptr;
  }
  // A purely-federated deployment has nothing local to publish; give it an
  // empty snapshot so submits are admitted instead of "no data published".
  if (need_snapshot) publish_snapshot(std::make_shared<Snapshot>());
}

bool Service::try_republish() {
  std::function<void()> rep;
  {
    std::lock_guard lock(degraded_mu_);
    rep = republish_;
  }
  if (!rep) return !degraded();
  try {
    rep();
  } catch (const common::Error& e) {
    {
      std::lock_guard lock(metrics_mu_);
      ++counters_.republish_failures;
    }
    std::lock_guard lock(degraded_mu_);
    degraded_ = true;
    degraded_reason_ = e.what();
    const int shift = std::min(retries_used_, 10);
    next_retry_ = Clock::now() + std::chrono::milliseconds(cfg_.stale_retry_backoff_ms *
                                                           (std::int64_t{1} << shift));
    return false;
  }
  std::lock_guard lock(degraded_mu_);
  degraded_ = false;
  degraded_reason_.clear();
  retries_used_ = 0;
  return true;
}

void Service::maybe_retry_republish() {
  {
    std::lock_guard lock(degraded_mu_);
    if (!degraded_ || !republish_) return;
    if (retries_used_ >= cfg_.stale_retry_limit) return;  // budget spent
    if (Clock::now() < next_retry_) return;               // inside backoff
    ++retries_used_;
  }
  (void)try_republish();
}

bool Service::degraded() const {
  std::lock_guard lock(degraded_mu_);
  return degraded_;
}

bool Service::refresh() { return try_republish(); }

Ticket Service::submit(const std::string& client, std::string_view text,
                       std::int64_t deadline_ms) {
  if (deadline_ms < 0) {
    throw common::InvalidArgument(common::strprintf(
        "submit deadline_ms must be non-negative (got %lld)",
        static_cast<long long>(deadline_ms)));
  }
  {
    std::lock_guard lock(metrics_mu_);
    ++counters_.submitted;
  }
  auto job = std::make_shared<Job>();
  job->client = client;
  job->submitted = Clock::now();
  job->future = job->promise.get_future().share();

  try {
    job->request = parse_request(text);
  } catch (const common::Error& e) {
    {
      std::lock_guard lock(metrics_mu_);
      ++counters_.parse_errors;
    }
    Response r;
    r.client = client;
    r.status = Status::kError;
    r.error = e.what();
    finish(*job, std::move(r));
    return Ticket(job);
  }
  job->canonical = print_request(job->request);
  // Degraded mode: spend one bounded, backoff-spaced retry on getting
  // healthy again, then serve whatever snapshot we hold — explicitly
  // flagged stale if the retry did not recover.
  if (degraded()) maybe_retry_republish();
  job->stale = degraded();
  job->snap = snapshot();

  Response base;
  base.client = client;
  base.canonical = job->canonical;
  if (!job->snap) {
    base.status = Status::kError;
    base.error = "no data published";
    finish(*job, std::move(base));
    return Ticket(job);
  }
  base.epoch = job->snap->epoch;
  base.watermark = job->snap->watermark;
  // The '#' separator is unambiguous: outside quoted strings the grammar has
  // no '#', and a '#' inside a quoted string is always followed by the
  // closing quote, so the trailing "#<digits>" run is uniquely the epoch.
  job->cache_key = job->canonical + "#" + std::to_string(job->snap->epoch);

  if (auto hit = cache_.lookup(job->cache_key)) {
    base.status = job->stale ? Status::kStale : Status::kOk;
    base.cache_hit = true;
    base.table = std::move(hit->table);
    base.stats = hit->stats;
    finish(*job, std::move(base));
    return Ticket(job);
  }

  const std::int64_t effective =
      deadline_ms == 0 ? cfg_.default_deadline_ms : deadline_ms;
  job->token.set_deadline(job->submitted + std::chrono::milliseconds(effective));

  {
    std::unique_lock lock(queue_mu_);
    if (stopping_) {
      lock.unlock();
      base.status = Status::kError;
      base.error = "service is shutting down";
      finish(*job, std::move(base));
      return Ticket(job);
    }
    if (queue_.size() >= static_cast<std::size_t>(cfg_.queue_limit)) {
      lock.unlock();
      base.status = Status::kRejected;
      base.error = common::strprintf("admission queue full (%d pending)",
                                     cfg_.queue_limit);
      finish(*job, std::move(base));
      return Ticket(job);
    }
    queue_.push_back(job);
    queue_peak_ = std::max(queue_peak_, queue_.size());
  }
  queue_cv_.notify_one();
  return Ticket(job);
}

void Service::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(*job);
  }
}

void Service::execute(Job& job) {
  const auto dequeued = Clock::now();
  Response r;
  r.client = job.client;
  r.canonical = job.canonical;
  r.epoch = job.snap->epoch;
  r.watermark = job.snap->watermark;
  r.queue_ms = ms_between(job.submitted, dequeued);

  if (job.token.cancelled()) {
    r.status = Status::kCancelled;
    r.error = "cancelled while queued";
  } else if (job.token.deadline_expired()) {
    r.status = Status::kTimedOut;
    r.error = "deadline expired before execution";
  } else {
    try {
      bool remote_served = false;
      if (job.request.kind == Request::Kind::kQuery) {
        const QuerySpec& spec = job.request.query;
        std::shared_ptr<const RemoteExecutor> remote;
        {
          std::lock_guard lock(snap_mu_);
          remote = remote_;
        }
        if (remote != nullptr && spec.table == remote->table_name()) {
          // Federated table: scatter-gather through the bound executor
          // instead of the local snapshot. A complete merge behaves exactly
          // like a local run (cached below); a degraded one responds
          // kPartial, names the missing shards and is never cached.
          RemoteResult fed = remote->run(spec);
          {
            std::lock_guard mlock(metrics_mu_);
            ++counters_.federated;
            for (const RemoteShardReport& s : fed.shards) {
              ServiceMetrics::ShardCounters& c = counters_.shards[s.shard];
              switch (s.outcome) {
                case RemoteShardReport::Outcome::kOk:
                  ++c.ok;
                  ++c.levels[static_cast<std::size_t>(s.level)];
                  break;
                case RemoteShardReport::Outcome::kPruned: ++c.pruned; break;
                case RemoteShardReport::Outcome::kTimedOut: ++c.timeouts; break;
                case RemoteShardReport::Outcome::kError: ++c.errors; break;
              }
              if (s.rollup_served) ++c.rollup_served;
              c.bytes += s.bytes;
              c.total_ms += s.ms;
            }
          }
          r.stats = fed.stats;
          r.table = std::move(fed.table);
          if (!fed.complete) {
            std::string failed;
            for (const RemoteShardReport& s : fed.shards) {
              if (s.outcome != RemoteShardReport::Outcome::kTimedOut &&
                  s.outcome != RemoteShardReport::Outcome::kError) {
                continue;
              }
              if (!failed.empty()) failed += "; ";
              failed += s.shard;
              failed += " (";
              failed += to_string(s.outcome);
              if (!s.error.empty()) {
                failed += ": ";
                failed += s.error;
              }
              failed += ")";
            }
            r.status = Status::kPartial;
            r.error = "federated answer is missing shards: " + failed;
          }
          remote_served = true;
        }
        if (!remote_served) {
          const auto it = job.snap->tables.find(spec.table);
          if (it == job.snap->tables.end()) {
            throw common::NotFoundError("service table '" + spec.table + "'");
          }
          // Subsumable jobs queries are answered from the materialized rollup
          // cells (bit-identical to the raw scan by the DESIGN.md §16
          // contract); everything else falls through to the scan unchanged.
          bool served = false;
          if (spec.table == archive::kJobsTable && job.snap->rollups &&
              warehouse::rollup::enabled()) {
            if (const auto plan = warehouse::rollup::subsume(to_rollup_input(spec))) {
              warehouse::Table out =
                  warehouse::rollup::serve(*job.snap->rollups, *plan, &r.stats);
              r.table = std::make_shared<const warehouse::Table>(std::move(out));
              served = true;
            }
            std::lock_guard mlock(metrics_mu_);
            served ? ++counters_.rollup_hits : ++counters_.rollup_misses;
          }
          if (!served) {
            warehouse::Query q = compile(spec, *it->second);
            q.cancel_token(&job.token);
            warehouse::Table out = q.run();
            r.stats = q.stats();
            r.table = std::make_shared<const warehouse::Table>(std::move(out));
          }
        }
      } else {
        if (!job.snap->realm) {
          throw common::NotFoundError(
              "report requested but no job summaries were published");
        }
        // The realm has no cooperative safe points; deadline and cancel are
        // enforced at the dequeue check above for report requests.
        r.table = std::make_shared<const warehouse::Table>(
            job.snap->realm->report(job.request.report));
      }
      // A degraded-mode run still caches: the result is correct for its
      // (stale) epoch, and later stale hits serve from it. An incomplete
      // federated answer (kPartial) never caches — a retry may find the
      // missing shards healthy again under the same epoch.
      if (r.status != Status::kPartial) {
        r.status = job.stale ? Status::kStale : Status::kOk;
        cache_.insert(job.cache_key, CachedResult{r.table, r.stats});
      }
    } catch (const common::Cancelled& e) {
      // No partial results escape: the executor threw before assigning its
      // output or stats, and we clear anything set on this response.
      r.table.reset();
      r.stats = warehouse::QueryStats{};
      if (job.token.cancelled()) {
        r.status = Status::kCancelled;
        r.error = e.what();
      } else {
        r.status = Status::kTimedOut;
        r.error = e.what();
      }
    } catch (const std::exception& e) {
      r.table.reset();
      r.stats = warehouse::QueryStats{};
      r.status = Status::kError;
      r.error = e.what();
    }
  }
  r.exec_ms = ms_between(dequeued, Clock::now());
  {
    std::lock_guard lock(metrics_mu_);
    counters_.queue_wait_ms.add(r.queue_ms);
    counters_.exec_ms.add(r.exec_ms);
  }
  finish(job, std::move(r));
}

void Service::finish(Job& job, Response r) {
  r.total_ms = ms_between(job.submitted, Clock::now());
  // Counters first, promise second: a client that returns from wait() must
  // already see its response reflected in metrics().
  {
    std::lock_guard lock(metrics_mu_);
    switch (r.status) {
      case Status::kOk: ++counters_.completed; break;
      case Status::kRejected: ++counters_.rejected; break;
      case Status::kTimedOut: ++counters_.timed_out; break;
      case Status::kCancelled: ++counters_.cancelled; break;
      case Status::kError: ++counters_.errors; break;
      case Status::kStale: ++counters_.stale_served; break;
      case Status::kPartial: ++counters_.federated_partial; break;
    }
    counters_.total_ms.add(r.total_ms);
  }
  job.promise.set_value(std::make_shared<const Response>(std::move(r)));
}

ServiceMetrics Service::metrics() const {
  ServiceMetrics m;
  {
    std::lock_guard lock(metrics_mu_);
    m = counters_;
  }
  {
    std::lock_guard lock(queue_mu_);
    m.queue_depth = queue_.size();
    m.queue_peak = queue_peak_;
  }
  const ResultCache::Counters c = cache_.counters();
  m.cache_hits = c.hits;
  m.cache_misses = c.misses;
  m.cache_evictions = c.evictions;
  m.cache_entries = c.entries;
  {
    std::lock_guard lock(snap_mu_);
    m.epoch = epoch_;
    m.federation_bound = remote_ != nullptr;
    if (snap_ && snap_->rollups) {
      m.rollups_enabled = warehouse::rollup::enabled();
      m.rollup_cells = snap_->rollups->cells();
    }
  }
  {
    std::lock_guard lock(degraded_mu_);
    m.degraded = degraded_;
  }
  return m;
}

std::string Service::metrics_json() const { return to_json(metrics()); }

}  // namespace supremm::service
