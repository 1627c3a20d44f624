// The query-serving workloads: adhoc (closed loop, raw scans) and federated
// (closed loop over TCP shards), plus the reference/replay machinery they
// share with ingest.
#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "archive/tables.h"
#include "common/strings.h"
#include "federation/executor.h"
#include "federation/federation.h"
#include "federation/transport.h"
#include "federation/wire.h"
#include "population.h"
#include "service/service.h"
#include "testkit/oracle.h"
#include "warehouse/partial.h"
#include "warehouse/rollup.h"
#include "workloads.h"
#include "xdmod/realm.h"

namespace perfbench {

namespace {

namespace svc = supremm::service;
namespace wh = supremm::warehouse;
namespace fed = supremm::federation;
using supremm::common::strprintf;

/// Jobs in the query workloads' population.
constexpr std::size_t kRows = 120'000;
/// Set-ups per run: half before the measured phase (the last one serves it),
/// half after the gates, so a slow spell of the host does not land on all
/// of them. setup_s and the query workloads' freshness use all of them.
constexpr int kSetupReps = 10;
/// Closed-loop analyst sessions of the adhoc workload.
constexpr int kAnalysts = 2;
/// Adhoc requests checked against the testkit oracle after the run.
constexpr std::size_t kOracleSamples = 4;

const char* const kProbe = "query jobs group quarter agg count()";

/// What the service builds on publish_jobs, rebuilt by the benchmark through
/// the same public functions so requests can be replayed call by call and
/// checked against independent paths.
struct Reference {
  wh::Table jobs;  // augmented, time-partitioned, zone-indexed
  std::unique_ptr<wh::rollup::RollupSet> rollups;
  std::unique_ptr<supremm::xdmod::JobsRealm> realm;
};

/// Work counted while replaying local requests.
struct ReplayCounts {
  std::uint64_t requests = 0;
  std::uint64_t rollup_served = 0;
  std::uint64_t raw = 0;
  std::uint64_t reports = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t result_rows = 0;  // of raw queries
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_pruned = 0;

  void add(const ReplayCounts& o) {
    requests += o.requests;
    rollup_served += o.rollup_served;
    raw += o.raw;
    reports += o.reports;
    rows_scanned += o.rows_scanned;
    result_rows += o.result_rows;
    chunks_total += o.chunks_total;
    chunks_pruned += o.chunks_pruned;
  }
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Per-request record of the measured phase.
struct Sample {
  double latency_ms = 0.0;  // the client's submit -> answer span
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  bool ok = false;
  bool traced = false;

  void take(const svc::Response& r) {
    ok = r.status == svc::Status::kOk;
    queue_ms = r.queue_ms;
    exec_ms = r.exec_ms;
  }
};

/// Set-up timings of one run.
struct SetupFigures {
  std::vector<double> setup_s;
  std::vector<double> fresh_s;
  std::vector<double> publish_s;
};

/// The end-to-end metrics of a query workload (untraced run), and the
/// attempt counts of either run. `peak_mb` is read when the measured phase
/// ends, before the benchmark's own gate references are built.
void add_results(Result& r, const Options& opt, const std::vector<Sample>& samples,
                 double phase_s, double peak_mb, const SetupFigures& fig) {
  std::vector<double> lat;
  std::vector<double> plain;  // the untraced half of a traced run
  for (const Sample& s : samples) {
    ++r.attempted;
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    lat.push_back(s.latency_ms);
    if (!s.traced) plain.push_back(s.latency_ms);
  }
  const Summary fresh = summarize(fig.fresh_s);
  if (!opt.trace) {
    const Summary sum = summarize(lat);
    r.metric("setup_s", median(fig.setup_s), "s");
    r.metric("latency_p50_ms", sum.p50, "ms");
    r.metric("throughput_rps", static_cast<double>(lat.size()) / phase_s, "1/s");
    r.metric("freshness_p50_s", fresh.p50, "s");
    r.metric("peak_rss_mb", peak_mb, "MiB");
    r.note("latency_tail_ms", strprintf("%.6g (%s over %zu samples)", sum.tail, sum.tail_name,
                                        sum.n));
    std::string deciles;
    for (int d = 1; d <= 9; ++d) deciles += strprintf(" %.3g", quantile(lat, d / 10.0));
    r.note("latency_deciles_ms", deciles);
  } else {
    const Summary sum = summarize(plain);
    r.metric("latency_tail_ms", sum.tail, "ms");
    r.metric("freshness_tail_s", fresh.tail, "s");
    r.note("latency_tail_ms", strprintf("%s over the %zu samples of the untraced half",
                                        sum.tail_name, sum.n));
  }
  r.note("freshness_tail_s", strprintf("%.6g (%s over %zu samples)", fresh.tail,
                                       fresh.tail_name, fresh.n));
  r.note("freshness_samples_s", sample_list(fig.fresh_s));
  r.note("setup_reps", strprintf("%zu (setup_s is their median)", fig.setup_s.size()));
}

/// Per-layer figures every query workload derives from its samples.
/// service.overhead_ms is what the service adds around queueing and
/// execution: the client's span minus Response::queue_ms and exec_ms.
void add_service_layer_metrics(Result& r, const std::vector<Sample>& samples) {
  std::vector<double> queue;
  std::vector<double> overhead;
  std::vector<double> plain;
  std::vector<double> traced;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    (s.traced ? traced : plain).push_back(s.latency_ms);
    queue.push_back(s.queue_ms);
    overhead.push_back(s.latency_ms - s.queue_ms - s.exec_ms);
  }
  r.metric("service.queue_wait_ms", summarize(queue).tail, "ms");
  r.metric("service.overhead_ms", mean(overhead), "ms");
  // The traced half's client latency against the untraced half.
  const double base = median(plain);
  r.metric("trace.overhead_frac", base > 0 ? median(traced) / base - 1.0 : 0.0, "ratio");
}

/// One local system: the population and a service that published it.
struct LocalSystem {
  Population pop;
  std::unique_ptr<svc::Service> service;
};

/// Generate the population and publish it; freshness runs from handing the
/// jobs to publish_jobs until the service answers at the new epoch.
LocalSystem setup_local(std::uint64_t seed, const svc::ServiceConfig& cfg, SetupFigures& fig) {
  LocalSystem sys;
  const Clock::time_point t0 = Clock::now();
  sys.pop = make_population(seed, kRows);
  sys.service = std::make_unique<svc::Service>(cfg);
  std::vector<supremm::etl::JobSummary> jobs = sys.pop.jobs;
  const Clock::time_point t1 = Clock::now();
  sys.service->publish_jobs(std::move(jobs));
  fig.publish_s.push_back(s_since(t1));
  const svc::ResponsePtr first = sys.service->session("probe").run(kProbe);
  if (first->status != svc::Status::kOk || first->epoch != sys.service->epoch()) {
    throw std::runtime_error("setup: first answer failed: " + first->error);
  }
  fig.fresh_s.push_back(s_since(t1));
  fig.setup_s.push_back(s_since(t0));
  return sys;
}

/// Set up kSetupReps / 2 times and keep the last system for the run.
template <typename Sys, typename F>
Sys setup_first_half(F setup) {
  Sys sys;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    sys = Sys{};
    sys = setup();
  }
  return sys;
}

/// The remaining set-ups, after the gates; each system is torn down at once.
template <typename F>
void setup_second_half(F setup) {
  for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) (void)setup();
}

/// Run `work(i)` for i in [0, n) on `threads` threads.
template <typename F>
void parallel_for(std::size_t n, int threads, F work) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) work(i);
    });
  }
  for (auto& th : pool) th.join();
}

/// Answers kept for the correctness gates, one per distinct canonical text.
class AnswerBook {
 public:
  void keep(const svc::Response& r) {
    if (!r.table || r.canonical.empty()) return;
    std::lock_guard lock(mu_);
    answers_.emplace(r.canonical, r.table);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::shared_ptr<const wh::Table>>> all()
      const {
    std::lock_guard lock(mu_);
    return {answers_.begin(), answers_.end()};
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const wh::Table>> answers_;
};

/// Compare every kept answer with `expect(canonical)` on 3 threads.
void gate_all(Result& r, const char* name, const AnswerBook& book,
              const std::function<wh::Table(const std::string&)>& expect) {
  const auto answers = book.all();
  std::atomic<std::size_t> mismatches{0};
  std::mutex mu;
  std::string first;
  parallel_for(answers.size(), 3, [&](std::size_t i) {
    const auto& [text, table] = answers[i];
    std::optional<std::string> diff;
    try {
      diff = supremm::testkit::table_diff(*table, expect(text));
    } catch (const std::exception& e) {
      diff = e.what();
    }
    if (diff) {
      ++mismatches;
      std::lock_guard lock(mu);
      if (first.empty()) first = text + ": " + *diff;
    }
  });
  r.gate(name, mismatches == 0 && !answers.empty(),
         strprintf("%zu distinct requests, %zu mismatches%s%s", answers.size(),
                   mismatches.load(), first.empty() ? "" : "; first: ", first.c_str()));
}

/// The traced replay must reproduce the service's answer bit-for-bit.
void gate_replay(Result& r, const char* name, std::size_t replayed, std::size_t diffs) {
  r.gate(name, diffs == 0, strprintf("%zu replayed requests, %zu mismatches", replayed, diffs));
}

bool same_answer(const wh::Table& replayed, const svc::Response& resp) {
  return resp.table && !supremm::testkit::table_diff(replayed, *resp.table);
}

supremm::testkit::QuerySpec to_testkit(const svc::QuerySpec& spec) {
  supremm::testkit::QuerySpec t;
  t.has_where = !spec.where.empty();
  for (const svc::Term& term : spec.where) {
    supremm::testkit::PredTerm p;
    switch (term.op) {
      case svc::TermOp::kEq: p.op = supremm::testkit::PredOp::kEq; break;
      case svc::TermOp::kGe: p.op = supremm::testkit::PredOp::kGe; break;
      case svc::TermOp::kLe: p.op = supremm::testkit::PredOp::kLe; break;
      case svc::TermOp::kBetween: p.op = supremm::testkit::PredOp::kBetween; break;
    }
    p.column = term.column;
    p.value = term.value;
    p.lo = term.lo;
    p.hi = term.hi;
    t.where.push_back(std::move(p));
  }
  t.group_by = spec.group_by;
  t.aggs = spec.aggs;
  return t;
}

void write_trace(Result& r, const Options& opt, const Tracer& tr) {
  if (opt.trace) finish_trace(r, tr, opt.workdir + "/trace-" + opt.workload + ".jsonl");
}


// Shared reference and replay

Reference make_reference(const std::vector<supremm::etl::JobSummary>& jobs, bool rollups,
                         bool realm) {
  Reference ref{supremm::archive::jobs_table(jobs), nullptr, nullptr};
  wh::rollup::augment_jobs_table(ref.jobs);
  if (rollups) {
    ref.rollups =
        std::make_unique<wh::rollup::RollupSet>(wh::rollup::build_from_table(ref.jobs));
  }
  ref.jobs.rebuild_zone_index(supremm::archive::kDefaultChunkRows);
  if (realm) ref.realm = std::make_unique<supremm::xdmod::JobsRealm>(jobs);
  return ref;
}

wh::rollup::QueryInput rollup_input(const svc::QuerySpec& spec) {
  wh::rollup::QueryInput in;
  for (const svc::Term& t : spec.where) {
    wh::rollup::PredInput p;
    switch (t.op) {
      case svc::TermOp::kEq: p.op = wh::rollup::PredInput::Op::kEq; break;
      case svc::TermOp::kGe: p.op = wh::rollup::PredInput::Op::kGe; break;
      case svc::TermOp::kLe: p.op = wh::rollup::PredInput::Op::kLe; break;
      case svc::TermOp::kBetween: p.op = wh::rollup::PredInput::Op::kBetween; break;
    }
    p.column = t.column;
    p.value = t.value;
    p.lo = t.lo;
    p.hi = t.hi;
    in.where.push_back(std::move(p));
  }
  in.group_by = spec.group_by;
  in.aggs = spec.aggs;
  return in;
}

wh::Table raw_scan(const Reference& ref, const svc::QuerySpec& spec) {
  return svc::compile(spec, ref.jobs).run();
}

wh::Table single_warehouse(const Reference& ref, const svc::QuerySpec& spec) {
  if (const auto plan = wh::rollup::subsume(rollup_input(spec))) {
    return wh::rollup::serve(*ref.rollups, *plan, nullptr);
  }
  return raw_scan(ref, spec);
}

wh::Table replay_local(const Reference& ref, const std::string& text, Tracer& tr,
                       std::uint64_t request, ReplayCounts& c) {
  ++c.requests;
  svc::Request req;
  {
    auto s = tr.span("service.parse", request);
    req = svc::parse_request(svc::canonical_text(text));
  }
  if (req.kind == svc::Request::Kind::kReport) {
    ++c.reports;
    auto s = tr.span("xdmod.report", request);
    return ref.realm->report(req.report);
  }
  {
    auto s = tr.span("rollup.subsume_serve", request);
    if (const auto plan = wh::rollup::subsume(rollup_input(req.query))) {
      ++c.rollup_served;
      wh::QueryStats st;
      return wh::rollup::serve(*ref.rollups, *plan, &st);
    }
  }
  ++c.raw;
  auto s = tr.span("query.scan", request);
  wh::Query q = [&] {
    auto cs = tr.span("query.compile", request);
    return svc::compile(req.query, ref.jobs);
  }();
  wh::Table out = [&] {
    auto rs = tr.span("query.run", request);
    return q.run();
  }();
  c.rows_scanned += q.stats().rows_scanned;
  c.chunks_total += q.stats().chunks_total;
  c.chunks_pruned += q.stats().chunks_pruned;
  c.result_rows += out.rows();
  return out;
}

void add_local_layer_metrics(Result& r, const std::map<std::string, LayerTime>& layers,
                             const ReplayCounts& c) {
  const auto total_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  const auto per = [](double v, std::uint64_t n) {
    return n > 0 ? v / static_cast<double>(n) : 0.0;
  };
  r.metric("service.parse_us", per(total_ms("service.parse") * 1e3, c.requests), "us");
  r.metric("rollup.serve_us",
           per(total_ms("rollup.subsume_serve") * 1e3, c.requests - c.reports), "us");
  const double scan_ms = total_ms("query.scan");
  r.metric("query.scan_ms", per(scan_ms, c.raw), "ms");
  r.metric("query.rows_scanned_per_s",
           scan_ms > 0 ? static_cast<double>(c.rows_scanned) * 1e3 / scan_ms : 0.0, "1/s");
  r.metric("query.rows_scanned_per_result_row",
           per(static_cast<double>(c.rows_scanned), c.result_rows), "ratio");
  r.metric("query.chunks_pruned_frac", ratio(c.chunks_pruned, c.chunks_total), "ratio");
  r.metric("xdmod.report_ms", per(total_ms("xdmod.report"), c.reports), "ms");
}

}  // namespace

void replay_local_layers(Result& r, const std::vector<supremm::etl::JobSummary>& jobs,
                         const std::vector<std::string>& texts, int reps, Tracer& tr) {
  const Reference ref = make_reference(jobs, true, true);
  ReplayCounts counts;
  std::uint64_t request = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& text : texts) (void)replay_local(ref, text, tr, request++, counts);
  }
  add_local_layer_metrics(r, tr.layer_times(), counts);
}

// ---------------------------------------------------------------------------
// adhoc: support-staff triage, closed loop, every request distinct

Result run_adhoc(const Options& opt) {
  Result r;
  svc::ServiceConfig cfg;
  cfg.workers = 2;
  SetupFigures fig;
  const auto setup = [&] { return setup_local(opt.seed, cfg, fig); };
  LocalSystem sys = setup_first_half<LocalSystem>(setup);
  // The benchmark's own copy of the jobs table: the traced replay needs it
  // during the phase, the oracle gate after it (and after peak_rss_mb).
  std::optional<Reference> ref;
  if (opt.trace) ref.emplace(make_reference(sys.pop.jobs, false, false));

  {
    svc::Session warm = sys.service->session("warmup");
    for (std::uint64_t i = 0; i < 4; ++i) {
      (void)warm.run(adhoc_request(opt.seed, (1ULL << 40) + i));
    }
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::size_t> replayed{0};
  std::atomic<std::size_t> replay_diffs{0};
  std::vector<std::vector<Sample>> per_thread(kAnalysts);
  std::vector<Tracer> tracers(kAnalysts, Tracer(opt.trace));
  std::vector<ReplayCounts> counts(kAnalysts);
  std::mutex mu;
  std::vector<std::pair<std::string, std::shared_ptr<const wh::Table>>> oracle_picks;
  const Clock::time_point start = Clock::now();
  const Clock::time_point half = after(start, opt.seconds / 2);
  const Clock::time_point end = after(start, opt.seconds);
  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([&, a] {
      svc::Session session = sys.service->session(strprintf("analyst%d", a));
      while (Clock::now() < end) {
        const std::uint64_t i = next++;
        const std::string text = adhoc_request(opt.seed, i);
        Sample s;
        s.traced = opt.trace && Clock::now() >= half;
        Tracer off;
        Tracer& tr = s.traced ? tracers[a] : off;
        const Clock::time_point t0 = Clock::now();
        svc::ResponsePtr resp;
        {
          auto span = tr.span("service.request", i);
          resp = session.run(text);
        }
        s.latency_ms = ms_since(t0);
        s.take(*resp);
        if (s.ok && i % 25 == 0) {
          std::lock_guard lock(mu);
          if (oracle_picks.size() < kOracleSamples) oracle_picks.emplace_back(text, resp->table);
        }
        if (s.traced) {
          const wh::Table again = replay_local(*ref, text, tr, i, counts[a]);
          ++replayed;
          if (!same_answer(again, *resp)) ++replay_diffs;
        }
        per_thread[static_cast<std::size_t>(a)].push_back(s);
      }
    });
  }
  for (auto& t : analysts) t.join();
  const double phase_s = s_since(start);
  const double peak_mb = peak_rss_mb();
  const svc::ServiceMetrics m = sys.service->metrics();
  if (!ref) ref.emplace(make_reference(sys.pop.jobs, false, false));

  // Gate: a sample of answers equals the testkit's row-at-a-time oracle.
  std::size_t mismatches = 0;
  std::string first;
  for (const auto& [text, table] : oracle_picks) {
    const svc::Request req = svc::parse_request(text);
    const auto oracle = supremm::testkit::run_oracle(ref->jobs, to_testkit(req.query));
    if (auto diff = supremm::testkit::table_diff(*table, oracle.table)) {
      ++mismatches;
      if (first.empty()) first = text + ": " + *diff;
    }
  }
  r.gate("adhoc.oracle_identity", mismatches == 0 && !oracle_picks.empty(),
         strprintf("%zu sampled requests, %zu mismatches%s%s", oracle_picks.size(), mismatches,
                   first.empty() ? "" : "; first: ", first.c_str()));
  if (opt.trace) gate_replay(r, "adhoc.replay_identity", replayed, replay_diffs);
  // The later set-ups start from the memory state the earlier ones did.
  ref.reset();
  sys = LocalSystem{};
  setup_second_half(setup);

  std::vector<Sample> samples;
  Tracer tr(opt.trace);
  ReplayCounts c;
  for (int a = 0; a < kAnalysts; ++a) {
    samples.insert(samples.end(), per_thread[a].begin(), per_thread[a].end());
    tr.merge(tracers[a]);
    c.add(counts[a]);
  }
  r.note("clients", strprintf("%d closed-loop analyst sessions", kAnalysts));
  add_results(r, opt, samples, phase_s, peak_mb, fig);
  if (opt.trace) {
    add_service_layer_metrics(r, samples);
    r.metric("rollup.hit_rate", ratio(m.rollup_hits, m.rollup_hits + m.rollup_misses), "ratio");
    add_local_layer_metrics(r, tr.layer_times(), c);
    r.metric("service.republish_s", median(fig.publish_s), "s");
  }
  write_trace(r, opt, tr);
  return r;
}

// ---------------------------------------------------------------------------
// federated: one cluster per shard, each a ShardServer on loopback TCP

namespace {

struct FedSystem {
  Population pop;
  std::vector<std::unique_ptr<fed::ShardExecutor>> executors;
  std::vector<std::unique_ptr<fed::ShardServer>> servers;
  std::shared_ptr<fed::Federation> federation;
  std::unique_ptr<svc::Service> service;  // last: drains before the shards stop
};

/// Population, then shard start-up: executors (rollups included), servers,
/// the federation and a purely federated service; freshness runs from the
/// start of shard start-up until the first answer.
std::unique_ptr<FedSystem> setup_federated(std::uint64_t seed, SetupFigures& fig) {
  auto sys = std::make_unique<FedSystem>();
  const Clock::time_point t0 = Clock::now();
  sys->pop = make_population(seed, kRows);
  const Clock::time_point t1 = Clock::now();
  sys->federation = std::make_shared<fed::Federation>();
  for (const std::string& cluster : sys->pop.clusters) {
    std::vector<supremm::etl::JobSummary> slice;
    for (const auto& j : sys->pop.jobs) {
      if (j.cluster == cluster) slice.push_back(j);
    }
    auto ex = std::make_unique<fed::ShardExecutor>(cluster, supremm::archive::jobs_table(slice));
    auto server = std::make_unique<fed::ShardServer>(*ex);
    sys->federation->add_shard(
        ex->info(), std::make_shared<fed::SocketTransport>("127.0.0.1", server->port()));
    sys->executors.push_back(std::move(ex));
    sys->servers.push_back(std::move(server));
  }
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;  // every request crosses the wire
  sys->service = std::make_unique<svc::Service>(cfg);
  sys->service->bind_remote(sys->federation);
  fig.publish_s.push_back(s_since(t1));
  const svc::ResponsePtr first = sys->service->session("probe").run(kProbe);
  if (first->status != svc::Status::kOk) {
    throw std::runtime_error("setup: first answer failed: " + first->error);
  }
  fig.fresh_s.push_back(s_since(t1));
  fig.setup_s.push_back(s_since(t0));
  return sys;
}

struct FedCounts {
  std::uint64_t queries = 0;
  std::uint64_t contacts = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<double> straggler;
};

wh::Table replay_federated(const FedSystem& fs, const std::string& text, Tracer& tr,
                           std::uint64_t request, FedCounts& c) {
  ++c.queries;
  svc::Request req;
  {
    auto s = tr.span("service.parse", request);
    req = svc::parse_request(svc::canonical_text(text));
  }
  std::vector<std::size_t> contacted;
  {
    auto s = tr.span("federation.prune", request);
    contacted = fs.federation->catalog().prune(req.query);
  }
  if (contacted.empty()) contacted.push_back(0);  // as the planner does
  std::vector<wh::partial::Partial> parts;
  std::vector<double> shard_ms;
  for (const std::size_t i : contacted) {
    const Clock::time_point t0 = Clock::now();
    const fed::wire::PartialMsg msg = [&] {
      auto s = tr.span("federation.shard_exec", request);
      return fs.executors[i]->execute(req.query, 0, "job_id");
    }();
    auto s = tr.span("federation.codec", request);
    const std::string framed =
        fed::wire::frame(fed::wire::MsgType::kPartial, fed::wire::pack_partial(msg));
    std::size_t off = 0;
    const fed::wire::Frame f = fed::wire::read_frame(framed, off);
    parts.push_back(fed::wire::unpack_partial(f.payload).partial);
    c.wire_bytes += framed.size();
    ++c.contacts;
    shard_ms.push_back(ms_since(t0));
  }
  if (shard_ms.size() >= 2) {
    c.straggler.push_back(*std::max_element(shard_ms.begin(), shard_ms.end()) /
                          std::max(median(shard_ms), 1e-9));
  }
  auto s = tr.span("federation.merge", request);
  return wh::partial::merge_partials(parts, req.query.aggs, "jobs_agg");
}

double shard_ms_total(const svc::ServiceMetrics& m) {
  double total = 0.0;
  for (const auto& [name, sc] : m.shards) total += sc.total_ms;
  return total;
}

}  // namespace

Result run_federated(const Options& opt) {
  Result r;
  SetupFigures fig;
  const auto setup = [&] { return setup_federated(opt.seed, fig); };
  std::unique_ptr<FedSystem> sys = setup_first_half<std::unique_ptr<FedSystem>>(setup);
  const std::vector<std::string> panels = federated_panels(sys->pop, opt.seed);

  svc::Session client = sys->service->session("portal");
  for (std::size_t i = 0; i < panels.size() / 4; ++i) (void)client.run(panels[i]);

  // The portal session refreshes its panels in whole rounds until the time
  // is up, so every run measures the same mix.
  std::vector<Sample> samples;
  AnswerBook book;
  Tracer tr(opt.trace);
  FedCounts counts;
  std::size_t replayed = 0;
  std::size_t replay_diffs = 0;
  svc::ServiceMetrics at_half;
  std::size_t rounds = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i % panels.size() != 0 || s_since(start) < opt.seconds; ++i) {
    if (i % panels.size() == 0) ++rounds;
    Sample s;
    s.traced = opt.trace && s_since(start) >= opt.seconds / 2;
    if (s.traced && replayed == 0) at_half = sys->service->metrics();
    const std::string& text = panels[i % panels.size()];
    Tracer off;
    Tracer& t = s.traced ? tr : off;
    const Clock::time_point t0 = Clock::now();
    svc::ResponsePtr resp;
    {
      auto span = t.span("service.request", i);
      resp = client.run(text);
    }
    s.latency_ms = ms_since(t0);
    s.take(*resp);
    if (s.ok) book.keep(*resp);
    if (s.traced) {
      const wh::Table again = replay_federated(*sys, text, tr, i, counts);
      ++replayed;
      if (!same_answer(again, *resp)) ++replay_diffs;
    }
    samples.push_back(s);
  }
  const double phase_s = s_since(start);
  const double peak_mb = peak_rss_mb();
  const svc::ServiceMetrics m = sys->service->metrics();

  {
    // Gate: every distinct federated answer equals the single warehouse.
    const Reference ref = make_reference(sys->pop.jobs, true, false);
    gate_all(r, "federated.single_warehouse_identity", book, [&](const std::string& text) {
      return single_warehouse(ref, svc::parse_request(text).query);
    });
  }
  if (opt.trace) gate_replay(r, "federated.replay_identity", replayed, replay_diffs);
  sys.reset();
  setup_second_half(setup);

  std::uint64_t contacts = 0;
  std::uint64_t pruned = 0;
  std::uint64_t answered = 0;
  std::uint64_t rollup_served = 0;
  for (const auto& [name, sc] : m.shards) {
    contacts += sc.ok + sc.pruned + sc.timeouts + sc.errors;
    pruned += sc.pruned;
    answered += sc.ok;
    rollup_served += sc.rollup_served;
  }
  r.note("clients", "1 closed-loop portal session; 1 service worker; 3 shard servers");
  r.note("rounds", strprintf("%zu rounds of %zu panels", rounds, panels.size()));
  add_results(r, opt, samples, phase_s, peak_mb, fig);
  if (opt.trace) {
    add_service_layer_metrics(r, samples);
    // The shards, not the coordinator's service, hold the rollups here.
    r.metric("rollup.hit_rate", ratio(rollup_served, answered), "ratio");
    const auto layers = tr.layer_times();
    const auto total_ms = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.total_ms;
    };
    const auto q = static_cast<double>(std::max<std::uint64_t>(counts.queries, 1));
    const auto k = static_cast<double>(std::max<std::uint64_t>(counts.contacts, 1));
    r.metric("service.parse_us", total_ms("service.parse") * 1e3 / q, "us");
    r.metric("service.republish_s", median(fig.publish_s), "s");
    r.metric("federation.prune_rate", ratio(pruned, contacts), "ratio");
    r.metric("federation.wire_bytes_per_query", static_cast<double>(counts.wire_bytes) / q,
             "bytes");
    r.metric("federation.codec_us", total_ms("federation.codec") * 1e3 / q, "us");
    const double exec_ms = total_ms("federation.shard_exec");
    r.metric("federation.transport_ms",
             (shard_ms_total(m) - shard_ms_total(at_half) - exec_ms) / k, "ms");
    r.metric("federation.shard_exec_ms", exec_ms / k, "ms");
    r.metric("federation.merge_ms", total_ms("federation.merge") / q, "ms");
    r.metric("federation.straggler_ratio", mean(counts.straggler), "ratio");
  }
  write_trace(r, opt, tr);
  return r;
}

}  // namespace perfbench
