// ingest: the facility's daily ETL cycle. Set-up simulates about two weeks of
// scaled Ranger through facility -> taccstats; the measured phase appends the
// stream one day at a time into a durable archive bound to the service while
// one client keeps refreshing dashboard shapes against it.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "accounting/accounting.h"
#include "archive/archive.h"
#include "archive/tables.h"
#include "common/io.h"
#include "common/strings.h"
#include "etl/ingest.h"
#include "facility/engine.h"
#include "facility/scheduler.h"
#include "facility/workload.h"
#include "lariat/lariat.h"
#include "service/service.h"
#include "taccstats/agent.h"
#include "testkit/oracle.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace svc = supremm::service;
namespace facility = supremm::facility;
using supremm::common::kDay;
using supremm::common::strprintf;

/// Scaled Ranger: 20 nodes, 10 users.
constexpr double kScale = 0.005;
/// The stream straddles the rollup quarter (and month) edge at day 84, so
/// rollup read-back grows through day 83 and resets after it.
constexpr std::int64_t kStartDay = 76;
constexpr std::int64_t kDays = 24;
/// The queue's walltime limit. Without it one multi-day job on a 20-node
/// machine holds back the archive's rewrite point, and every later append
/// re-ingests from that job's start: the per-day work then depends on the seed.
constexpr supremm::common::Duration kWalltime = 24 * supremm::common::kHour;
constexpr int kSetupReps = 5;
/// Agents collect on 2 threads during set-up; the appends ingest on 1, so the
/// measured phase runs 3 busy threads (ETL, client, service worker) on the
/// 4 cores and the client is not timed against the scheduler.
constexpr std::size_t kCollectThreads = 2;
constexpr std::size_t kIngestThreads = 1;

/// The standing dashboard shapes the facility's client refreshes in turn,
/// closed loop with the result cache off, so every answer is computed
/// beside the appends.
const std::vector<std::string> kClientShapes = {
    "query jobs group day agg count(),sum(node_hours)",
    "query jobs group week agg sum(node_hours),wmean(cpu_idle,node_hours)",
    "query jobs group user agg sum(node_hours),count()",
    "query jobs group app agg sum(node_hours),mean(cpu_flops_gf_node)",
    "query jobs group app,month agg sum(node_hours),max(mem_used_max_gb)",
    "query jobs where node_hours >= 8 group user agg count(),wmean(cpu_idle,node_hours)",
    "query series where time >= 7257600 agg mean(active_nodes),max(active_nodes)",
    "report jobs dimension application stats total_node_hours,avg_cpu_idle",
    "report jobs dimension user stats job_count,wasted_node_hours sort job_count limit 5",
};

/// Everything the simulation hands to the ETL.
struct Simulated {
  facility::ClusterSpec spec;
  std::vector<facility::AppSignature> catalogue;
  std::unique_ptr<facility::UserPopulation> population;
  std::unique_ptr<facility::FacilityEngine> engine;
  std::vector<supremm::taccstats::RawFile> files;
  std::vector<supremm::accounting::AccountingRecord> acct;
  std::vector<supremm::lariat::LariatRecord> lariat;
  std::unordered_map<std::string, std::string> project_science;
  std::uint64_t raw_bytes = 0;
  double simulate_s = 0.0;
  double collect_s = 0.0;
};

Simulated simulate(std::uint64_t seed) {
  Simulated s;
  const Clock::time_point t0 = Clock::now();
  s.spec = facility::scaled(facility::ranger(), kScale);
  s.catalogue = facility::standard_catalogue();
  s.population = std::make_unique<facility::UserPopulation>(
      facility::UserPopulation::generate(s.spec, s.catalogue, seed));
  facility::WorkloadConfig wl;
  wl.start = kStartDay * kDay;
  wl.span = kDays * kDay;
  wl.seed = seed;
  auto requests = facility::generate_workload(s.spec, s.catalogue, *s.population, wl);
  for (auto& req : requests) req.duration = std::min(req.duration, kWalltime);
  auto execs = facility::Scheduler::run(s.spec, std::move(requests), {});
  s.engine = std::make_unique<facility::FacilityEngine>(s.spec, std::move(execs),
                                                        std::vector<facility::MaintenanceWindow>{},
                                                        wl.start, wl.start + wl.span, seed);
  s.simulate_s = s_since(t0);
  const Clock::time_point t1 = Clock::now();
  for (auto& o : supremm::taccstats::run_all_agents(*s.engine, {}, kCollectThreads)) {
    s.raw_bytes += o.bytes;
    s.files.insert(s.files.end(), std::make_move_iterator(o.files.begin()),
                   std::make_move_iterator(o.files.end()));
  }
  s.collect_s = s_since(t1);
  s.acct = supremm::accounting::from_executions(s.spec, *s.population, s.engine->executions());
  s.lariat = supremm::lariat::from_executions(s.spec, s.catalogue, *s.population,
                                              s.engine->executions());
  s.project_science = supremm::etl::project_science_map(*s.population);
  return s;
}

supremm::etl::IngestConfig ingest_config(const Simulated& s, std::int64_t days) {
  supremm::etl::IngestConfig cfg;
  cfg.start = kStartDay * kDay;
  cfg.span = days * kDay;
  cfg.cluster = s.spec.name;
  cfg.threads = kIngestThreads;
  cfg.bucket = 10 * supremm::common::kMinute;
  cfg.min_job_seconds = cfg.bucket;
  return cfg;
}

supremm::archive::AppendStats append_days(supremm::archive::Archive& ar, const Simulated& s,
                                          std::uint64_t seed, std::int64_t days) {
  return ar.append(ingest_config(s, days), s.files, s.acct, s.lariat, s.catalogue,
                   s.project_science, strprintf("perfbench ingest seed=%llu",
                                                static_cast<unsigned long long>(seed)),
                   (kStartDay + days) * kDay);
}

/// The raw files Archive::append hands to IngestPipeline::run when days from
/// `prev_final` on are (re)computed up to `day_end` (exclusive): back to the
/// earliest start of a job ending past the boundary, and one day before it.
std::vector<supremm::taccstats::RawFile> append_window(const Simulated& s,
                                                       std::int64_t prev_final,
                                                       std::int64_t day_end) {
  std::int64_t cutoff = prev_final - 1;
  for (const auto& a : s.acct) {
    if (a.end > prev_final * kDay) cutoff = std::min(cutoff, supremm::common::day_of(a.start));
  }
  cutoff = std::max(cutoff, kStartDay);
  std::vector<supremm::taccstats::RawFile> window;
  for (const auto& f : s.files) {
    if (f.day >= cutoff && f.day <= day_end) window.push_back(f);
  }
  return window;
}

std::uint64_t live_bytes(const supremm::archive::Manifest& m) {
  std::uint64_t total = 0;
  for (const auto& p : m.partitions) total += p.bytes;
  return total;
}

std::optional<std::string> diff_tables(const supremm::archive::LoadResult& a,
                                       const supremm::archive::LoadResult& b) {
  if (auto d = supremm::testkit::table_diff(supremm::archive::jobs_table(a.result.jobs),
                                            supremm::archive::jobs_table(b.result.jobs))) {
    return "jobs: " + *d;
  }
  if (auto d = supremm::testkit::table_diff(supremm::archive::series_table(a.result.series),
                                            supremm::archive::series_table(b.result.series))) {
    return "series: " + *d;
  }
  return std::nullopt;
}

}  // namespace

Result run_ingest(const Options& opt) {
  Result r;
  const std::string dir = opt.workdir + "/ingest-archive";
  const std::string scratch_dir = opt.workdir + "/ingest-from-scratch";

  // Set-up: simulate + collect, then the first day's append and the bind.
  std::vector<double> setup_s;
  std::vector<double> simulate_s;
  std::vector<double> collect_s;
  std::unique_ptr<Simulated> sim;
  std::unique_ptr<supremm::common::CountingIoPolicy> io;
  std::unique_ptr<supremm::archive::Archive> ar;
  std::unique_ptr<svc::Service> service;
  Clock::time_point republish_start{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    ar.reset();
    sim.reset();
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    sim = std::make_unique<Simulated>(simulate(opt.seed));
    io = std::make_unique<supremm::common::CountingIoPolicy>();
    ar = std::make_unique<supremm::archive::Archive>(dir, 1, io.get());
    // Registered before bind_archive, so it runs just ahead of the service's
    // republish hook: the republish span starts here.
    ar->on_append([&republish_start](const supremm::archive::Manifest&) {
      republish_start = Clock::now();
    });
    (void)append_days(*ar, *sim, opt.seed, 1);
    svc::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache_entries = 0;
    service = std::make_unique<svc::Service>(cfg);
    service->bind_archive(*ar);
    if (service->session("probe").run(kClientShapes[0])->status != svc::Status::kOk) {
      throw std::runtime_error("setup: first answer failed");
    }
    setup_s.push_back(s_since(t0));
    simulate_s.push_back(sim->simulate_s);
    collect_s.push_back(sim->collect_s);
  }

  // Measured phase: days 1..kDays-1, one append each, beside one client.
  std::atomic<bool> streaming{true};
  std::atomic<bool> traced_half{false};
  std::vector<double> client_ms;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::uint64_t client_attempted = 0;
  std::uint64_t client_failed = 0;
  std::vector<double> client_queue;
  std::set<std::string> client_texts;
  std::thread client([&] {
    svc::Session s = service->session("facility-dashboard");
    for (std::uint64_t i = 0; streaming.load(); ++i) {
      const std::string& text = kClientShapes[i % kClientShapes.size()];
      const Clock::time_point t0 = Clock::now();
      const svc::ResponsePtr resp = s.run(text);
      ++client_attempted;
      if (resp->status != svc::Status::kOk) {
        ++client_failed;
        continue;
      }
      client_ms.push_back(ms_since(t0));
      (traced_half.load() ? traced_ms : plain_ms).push_back(client_ms.back());
      client_texts.insert(text);
      client_queue.push_back(resp->queue_ms);
    }
  });

  Tracer tr(opt.trace);
  std::vector<double> fresh_s;
  std::vector<double> append_s;
  std::vector<double> republish_s;
  std::vector<double> ingest_s;
  std::vector<double> raw_mb_per_s;
  std::vector<double> fsyncs;
  std::vector<double> io_ops;
  std::vector<double> bytes_written;
  std::vector<double> days_read_back;
  std::vector<double> cells_written;
  std::uint64_t appends_failed = 0;
  svc::Session prober = service->session("freshness");
  const Clock::time_point start = Clock::now();
  for (std::int64_t d = 1; d < kDays; ++d) {
    // Like the query workloads, the traced run traces its second half only,
    // so the first half is its untraced baseline.
    const bool traced = opt.trace && d >= kDays / 2;
    traced_half = traced;
    Tracer off;
    Tracer& t = traced ? tr : off;
    const std::int64_t prev_final = ar->manifest().rewrite_from;
    const std::uint64_t f0 = io->count(supremm::common::IoOp::kFsync) +
                             io->count(supremm::common::IoOp::kFsyncDir);
    const std::uint64_t ops0 = io->total();
    const std::uint64_t b0 = io->bytes_written();
    const Clock::time_point t0 = Clock::now();
    supremm::archive::AppendStats st;
    try {
      auto span = t.span("archive.append", static_cast<std::uint64_t>(d));
      st = append_days(*ar, *sim, opt.seed, d + 1);
      const Clock::time_point t1 = Clock::now();
      t.record("service.republish", republish_start, t1, static_cast<std::uint64_t>(d));
      append_s.push_back(std::chrono::duration<double>(republish_start - t0).count());
      republish_s.push_back(std::chrono::duration<double>(t1 - republish_start).count());
    } catch (const std::exception& e) {
      ++appends_failed;
      r.note("append_error", e.what());
      continue;
    }
    const svc::ResponsePtr probe = prober.run(kClientShapes[0]);
    if (probe->status == svc::Status::kOk && probe->epoch == service->epoch()) {
      fresh_s.push_back(s_since(t0));
    } else {
      ++appends_failed;
    }
    fsyncs.push_back(static_cast<double>(io->count(supremm::common::IoOp::kFsync) +
                                         io->count(supremm::common::IoOp::kFsyncDir) - f0));
    io_ops.push_back(static_cast<double>(io->total() - ops0));
    bytes_written.push_back(static_cast<double>(io->bytes_written() - b0));
    days_read_back.push_back(static_cast<double>(st.rollup_days_read_back));
    cells_written.push_back(static_cast<double>(st.rollup_cells_written));
    if (traced) {
      // Sibling span: the ETL alone over the same window the append ingested.
      const auto window = append_window(*sim, prev_final, kStartDay + d + 1);
      std::uint64_t window_bytes = 0;
      for (const auto& f : window) window_bytes += f.content.size();
      const Clock::time_point e0 = Clock::now();
      {
        auto span = t.span("etl.ingest", static_cast<std::uint64_t>(d));
        const supremm::etl::IngestPipeline pipeline(ingest_config(*sim, d + 1));
        (void)pipeline.run(window, sim->acct, sim->lariat, sim->catalogue,
                           sim->project_science);
      }
      ingest_s.push_back(s_since(e0));
      raw_mb_per_s.push_back(static_cast<double>(window_bytes) / (1024.0 * 1024.0) /
                             ingest_s.back());
    }
  }
  const double phase_s = s_since(start);
  streaming = false;
  client.join();
  const double peak_mb = peak_rss_mb();
  const svc::ServiceMetrics m = service->metrics();
  const std::uint64_t archive_bytes = live_bytes(ar->manifest());

  // Gates, untimed: the reopened archive equals one from-scratch ingest of
  // the whole span, and the bound service answers like a freshly bound one.
  {
    const supremm::archive::Archive reopened(dir);
    fs::remove_all(scratch_dir);
    supremm::archive::Archive scratch(scratch_dir);
    (void)append_days(scratch, *sim, opt.seed, kDays);
    const supremm::archive::LoadResult loaded = reopened.load();
    const auto diff = diff_tables(loaded, scratch.load());
    r.gate("ingest.reopened_equals_from_scratch", !diff,
           diff ? *diff : strprintf("%lld days, %zu jobs", static_cast<long long>(kDays),
                                    loaded.result.jobs.size()));
    if (opt.trace) {
      // The client's jobs shapes and reports, replayed call by call against
      // the final state: the rollup, query and xdmod layers of this workload.
      std::vector<std::string> jobs_texts;
      for (const std::string& text : client_texts) {
        if (text.rfind("query series", 0) != 0) jobs_texts.push_back(text);
      }
      replay_local_layers(r, loaded.result.jobs, jobs_texts, 3, tr);
    }
  }
  {
    supremm::archive::Archive reopened(dir);
    svc::Service fresh(svc::ServiceConfig{});
    fresh.bind_archive(reopened);
    svc::Session a = service->session("gate");
    svc::Session b = fresh.session("gate");
    std::size_t mismatches = 0;
    std::string first;
    for (const std::string& text : client_texts) {
      const svc::ResponsePtr x = a.run(text);
      const svc::ResponsePtr y = b.run(text);
      std::optional<std::string> d;
      if (!x->table || !y->table) {
        d = "missing answer";
      } else {
        d = supremm::testkit::table_diff(*x->table, *y->table);
      }
      if (d) {
        ++mismatches;
        if (first.empty()) first = text + ": " + *d;
      }
    }
    r.gate("ingest.final_answers_equal_fresh_bind", mismatches == 0 && !client_texts.empty(),
           strprintf("%zu distinct requests, %zu mismatches%s%s", client_texts.size(),
                     mismatches, first.empty() ? "" : "; first: ", first.c_str()));
  }
  service.reset();
  ar.reset();
  fs::remove_all(dir);
  fs::remove_all(scratch_dir);

  r.attempted = client_attempted + static_cast<std::uint64_t>(kDays - 1);
  r.failed = client_failed + appends_failed;
  r.note("stream", strprintf("%lld daily appends from day %lld (quarter edge at day 84), "
                             "scaled Ranger x%.3f (%zu nodes), %.1f MB raw",
                             static_cast<long long>(kDays - 1), static_cast<long long>(kStartDay),
                             kScale, sim->spec.node_count,
                             static_cast<double>(sim->raw_bytes) / (1024.0 * 1024.0)));
  r.note("clients", "1 closed-loop dashboard client + 1 freshness probe; 1 service worker; "
                    "1 ingest thread");
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double storage = ratio(static_cast<double>(archive_bytes),
                               static_cast<double>(sim->raw_bytes));
  const Summary f = summarize(fresh_s);
  r.note("freshness_tail_s", strprintf("%.6g (%s over %zu samples)", f.tail, f.tail_name, f.n));
  r.note("freshness_samples_s", sample_list(fresh_s));
  r.note("storage_ratio", strprintf("%.6f (archive %llu B / raw %llu B)", storage,
                                    static_cast<unsigned long long>(archive_bytes),
                                    static_cast<unsigned long long>(sim->raw_bytes)));
  if (!opt.trace) {
    const Summary lat = summarize(client_ms);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("latency_p50_ms", lat.p50, "ms");
    r.metric("throughput_rps", static_cast<double>(client_ms.size()) / phase_s, "1/s");
    r.metric("freshness_p50_s", f.p50, "s");
    r.metric("peak_rss_mb", peak_mb, "MiB");
    r.note("latency_tail_ms", strprintf("%.6g (%s over %zu samples)", lat.tail, lat.tail_name,
                                        lat.n));
    r.note("setup_reps", strprintf("%zu (setup_s is their median)", setup_s.size()));
  } else {
    const Summary lat = summarize(plain_ms);
    r.metric("latency_tail_ms", lat.tail, "ms");
    r.metric("freshness_tail_s", f.tail, "s");
    r.note("latency_tail_ms", strprintf("%s over the %zu samples of the untraced half",
                                        lat.tail_name, lat.n));
    r.metric("service.queue_wait_ms", summarize(client_queue).tail, "ms");
    r.metric("service.republish_s", mean(republish_s), "s");
    r.metric("rollup.hit_rate",
             ratio(static_cast<double>(m.rollup_hits),
                   static_cast<double>(m.rollup_hits + m.rollup_misses)),
             "ratio");
    r.metric("etl.ingest_s", mean(ingest_s), "s");
    r.metric("etl.raw_mb_per_s", mean(raw_mb_per_s), "MB/s");
    r.metric("archive.append_s", mean(append_s), "s");
    r.metric("archive.fsyncs_per_append", mean(fsyncs), "count");
    r.metric("archive.io_ops_per_append", mean(io_ops), "count");
    r.metric("archive.bytes_written_per_append", mean(bytes_written), "bytes");
    r.metric("archive.write_amp",
             ratio(static_cast<double>(io->bytes_written()), static_cast<double>(archive_bytes)),
             "ratio");
    r.metric("archive.rollup_days_read_back", mean(days_read_back), "count");
    r.metric("archive.rollup_cells_written", mean(cells_written), "count");
    r.metric("storage_ratio", storage, "ratio");
    r.metric("taccstats.collect_s", median(collect_s), "s");
    r.metric("taccstats.raw_mb", static_cast<double>(sim->raw_bytes) / (1024.0 * 1024.0), "MB");
    r.metric("facility.simulate_s", median(simulate_s), "s");
    const double base = median(plain_ms);
    r.metric("trace.overhead_frac", base > 0 ? median(traced_ms) / base - 1.0 : 0.0, "ratio");
    finish_trace(r, tr, opt.workdir + "/trace-ingest.jsonl");
  }
  return r;
}

}  // namespace perfbench
