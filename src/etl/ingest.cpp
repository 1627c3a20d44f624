#include "etl/ingest.h"

#include "etl/pair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/error.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "facility/apps.h"
#include "procsim/perf.h"
#include "taccstats/reader.h"

namespace supremm::etl {

using Header = taccstats::ParsedFile::Header;

namespace {

constexpr double kMb = 1.0e6;

/// Everything accumulated for one job across all its nodes and intervals.
struct JobAccum {
  double user_cs = 0, sys_cs = 0, idle_cs = 0, total_cs = 0;
  double flops = 0, flops_node_s = 0;
  double node_s = 0;
  double mem_w = 0, mem_t = 0, mem_max = 0;
  double scratch_wr = 0, scratch_rd = 0, work_wr = 0;
  double ib_tx = 0, ib_rx = 0, lnet_tx = 0, lnet_rx = 0;
  double swap_bytes = 0;
  double load_w = 0;
  std::uint64_t samples = 0;
  // Observed extent, for reconciling jobs whose accounting records are lost.
  common::TimePoint first_seen = std::numeric_limits<common::TimePoint>::max();
  common::TimePoint last_seen = std::numeric_limits<common::TimePoint>::min();
  std::uint64_t hosts = 0;  // nodes contributing samples

  void merge(const JobAccum& o) noexcept {
    user_cs += o.user_cs;
    sys_cs += o.sys_cs;
    idle_cs += o.idle_cs;
    total_cs += o.total_cs;
    flops += o.flops;
    flops_node_s += o.flops_node_s;
    node_s += o.node_s;
    mem_w += o.mem_w;
    mem_t += o.mem_t;
    mem_max = std::max(mem_max, o.mem_max);
    scratch_wr += o.scratch_wr;
    scratch_rd += o.scratch_rd;
    work_wr += o.work_wr;
    ib_tx += o.ib_tx;
    ib_rx += o.ib_rx;
    lnet_tx += o.lnet_tx;
    lnet_rx += o.lnet_rx;
    swap_bytes += o.swap_bytes;
    load_w += o.load_w;
    samples += o.samples;
    first_seen = std::min(first_seen, o.first_seen);
    last_seen = std::max(last_seen, o.last_seen);
    hosts += o.hosts;
  }
};

/// Facility bucket accumulators.
struct SysAccum {
  std::size_t n = 0;
  std::vector<double> active_s, up_s, flops, mem_w, mem_t;
  std::vector<double> user_cs, idle_cs, sys_cs;
  std::vector<double> scratch_wr, scratch_rd, work_wr, share_bytes, ib_tx, lnet_tx;

  explicit SysAccum(std::size_t buckets) : n(buckets) {
    for (auto* v : {&active_s, &up_s, &flops, &mem_w, &mem_t, &user_cs, &idle_cs, &sys_cs,
                    &scratch_wr, &scratch_rd, &work_wr, &share_bytes, &ib_tx, &lnet_tx}) {
      v->assign(buckets, 0.0);
    }
  }

  void merge(const SysAccum& o) {
    auto add = [](std::vector<double>& a, const std::vector<double>& b) {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    };
    add(active_s, o.active_s);
    add(up_s, o.up_s);
    add(flops, o.flops);
    add(mem_w, o.mem_w);
    add(mem_t, o.mem_t);
    add(user_cs, o.user_cs);
    add(idle_cs, o.idle_cs);
    add(sys_cs, o.sys_cs);
    add(scratch_wr, o.scratch_wr);
    add(scratch_rd, o.scratch_rd);
    add(work_wr, o.work_wr);
    add(share_bytes, o.share_bytes);
    add(ib_tx, o.ib_tx);
    add(lnet_tx, o.lnet_tx);
  }
};

struct ChunkResult {
  SysAccum sys;
  std::map<facility::JobId, JobAccum> jobs;  // ordered for deterministic merge
  IngestStats stats;
  std::vector<HostQuality> quality;                // in host order within chunk
  std::vector<taccstats::Quarantine> quarantines;  // in host/file/line order

  explicit ChunkResult(std::size_t buckets) : sys(buckets) {}
};

/// One sample of a host's timeline: its file's keys, its header (salvage
/// repairs the time in place) and its index in the file.
struct TimelineSample {
  const PairKeys* keys;
  Header* header;
  std::uint32_t ix;
};

/// Exact sample equality, as the nested Sample's operator== would see it:
/// header, then type names, device names and values record by record. The
/// two samples may come from files with different dictionaries.
bool same_sample(const TimelineSample& a, const TimelineSample& b) {
  const Header& ha = *a.header;
  const Header& hb = *b.header;
  if (ha.time != hb.time || ha.job_id != hb.job_id || ha.mark != hb.mark) return false;
  if (ha.record_end - ha.record_begin != hb.record_end - hb.record_begin) return false;
  const taccstats::ParsedFile& fa = *a.keys->file;
  const taccstats::ParsedFile& fb = *b.keys->file;
  for (std::uint32_t k = 0; k < ha.record_end - ha.record_begin; ++k) {
    const auto& ra = fa.records[ha.record_begin + k];
    const auto& rb = fb.records[hb.record_begin + k];
    if (fa.schemas[ra.schema].type != fb.schemas[rb.schema].type) return false;
    if (ra.row_end - ra.row_begin != rb.row_end - rb.row_begin) return false;
    for (std::uint32_t i = 0; i < ra.row_end - ra.row_begin; ++i) {
      const auto& wa = fa.rows[ra.row_begin + i];
      const auto& wb = fb.rows[rb.row_begin + i];
      if (fa.devices[wa.device] != fb.devices[wb.device]) return false;
      const auto va = fa.row_values(ra, wa);
      const auto vb = fb.row_values(rb, wb);
      if (!std::equal(va.begin(), va.end(), vb.begin(), vb.end())) return false;
    }
  }
  return true;
}

}  // namespace

std::unordered_map<std::string, std::string> project_science_map(
    const facility::UserPopulation& population) {
  std::unordered_map<std::string, std::string> out;
  for (const auto& u : population.users()) {
    out.emplace(u.project, std::string(facility::science_name(u.science)));
  }
  return out;
}

IngestPipeline::IngestPipeline(IngestConfig config) : config_(std::move(config)) {
  if (config_.span <= 0) {
    throw common::InvalidArgument("IngestConfig.span must be positive");
  }
  if (config_.bucket <= 0) {
    throw common::InvalidArgument("IngestConfig.bucket must be positive");
  }
  if (config_.hosts_per_chunk == 0) {
    throw common::InvalidArgument("IngestConfig.hosts_per_chunk must be positive");
  }
  if (config_.min_job_seconds < 0) {
    throw common::InvalidArgument("IngestConfig.min_job_seconds must be non-negative");
  }
  if (config_.max_pair_gap < 0) {
    throw common::InvalidArgument("IngestConfig.max_pair_gap must be non-negative");
  }
}

IngestResult IngestPipeline::run(
    const std::vector<taccstats::RawFile>& files,
    const std::vector<accounting::AccountingRecord>& acct,
    const std::vector<lariat::LariatRecord>& lariat_records,
    const std::vector<facility::AppSignature>& catalogue,
    const std::unordered_map<std::string, std::string>& project_science) const {
  std::vector<const taccstats::RawFile*> ptrs;
  ptrs.reserve(files.size());
  for (const auto& f : files) ptrs.push_back(&f);
  return run(ptrs, acct, lariat_records, catalogue, project_science);
}

IngestResult IngestPipeline::run(
    std::span<const taccstats::RawFile* const> files,
    const std::vector<accounting::AccountingRecord>& acct,
    const std::vector<lariat::LariatRecord>& lariat_records,
    const std::vector<facility::AppSignature>& catalogue,
    const std::unordered_map<std::string, std::string>& project_science) const {
  const bool salvage = config_.mode == IngestMode::kSalvage;
  const auto buckets =
      static_cast<std::size_t>((config_.span + config_.bucket - 1) / config_.bucket);

  // Group files by host, ordered by day.
  std::map<std::string, std::vector<const taccstats::RawFile*>> by_host;
  for (const taccstats::RawFile* f : files) by_host[f->hostname].push_back(f);
  for (auto& [host, fs] : by_host) {
    std::sort(fs.begin(), fs.end(), [](const taccstats::RawFile* a,
                                       const taccstats::RawFile* b) { return a->day < b->day; });
  }
  std::vector<const std::vector<const taccstats::RawFile*>*> hosts;
  hosts.reserve(by_host.size());
  for (const auto& [host, fs] : by_host) hosts.push_back(&fs);

  // Fixed-size chunks (independent of thread count) for deterministic merge.
  const std::size_t chunk = config_.hosts_per_chunk;
  const std::size_t nchunks = (hosts.size() + chunk - 1) / chunk;
  std::vector<ChunkResult> partials;
  partials.reserve(nchunks);
  for (std::size_t i = 0; i < nchunks; ++i) partials.emplace_back(buckets);

  const common::TimePoint t0 = config_.start;
  const common::Duration bucket_len = config_.bucket;
  const common::Duration max_gap =
      config_.max_pair_gap > 0 ? config_.max_pair_gap : 3 * bucket_len;
  const PairPolicy pair_policy{salvage};

  // Accounting start times: the reference for per-host clock-skew estimation
  // (job-begin marks are stamped with the scheduler's start time).
  std::unordered_map<facility::JobId, common::TimePoint> acct_start;
  if (salvage) {
    acct_start.reserve(acct.size());
    for (const auto& a : acct) acct_start.emplace(a.job_id, a.start);
  }

  auto process_host = [&](const std::vector<const taccstats::RawFile*>& host_files,
                          ChunkResult& res) {
    HostQuality hq;
    hq.host = host_files.front()->hostname;
    hq.files = host_files.size();
    std::vector<taccstats::ParsedFile> parsed_files;
    parsed_files.reserve(host_files.size());
    for (const auto* file : host_files) {
      res.stats.bytes += file->content.size();
      ++res.stats.files;
      const std::string source =
          common::strprintf("%s/day%lld", file->hostname.c_str(),
                            static_cast<long long>(file->day));
      if (salvage) {
        auto sr = taccstats::parse_raw_salvage(file->content, source);
        hq.quarantined += sr.quarantined.size();
        res.stats.quarantined += sr.quarantined.size();
        res.quarantines.insert(res.quarantines.end(),
                               std::make_move_iterator(sr.quarantined.begin()),
                               std::make_move_iterator(sr.quarantined.end()));
        parsed_files.push_back(std::move(sr.file));
      } else {
        parsed_files.push_back(taccstats::parse_raw(file->content, source));
      }
    }

    std::string perf_type;
    for (const auto& pf : parsed_files) {
      if (perf_type.empty()) perf_type = committed_perf_type(pf);
    }
    std::vector<PairKeys> keys;
    keys.reserve(parsed_files.size());
    for (const auto& pf : parsed_files) keys.emplace_back(pf, perf_type);

    // The host's sample timeline, files concatenated in day order.
    std::vector<TimelineSample> seq;
    for (std::size_t f = 0; f < parsed_files.size(); ++f) {
      auto& samples = parsed_files[f].samples;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        seq.push_back({&keys[f], &samples[i], static_cast<std::uint32_t>(i)});
      }
    }

    if (salvage) {
      // Out-of-order detection before any repair: count time descents.
      for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i].header->time < seq[i - 1].header->time) ++hq.reordered;
      }
      res.stats.reordered += hq.reordered;

      // Clock skew: job-begin marks are emitted at the scheduler-assigned
      // start time, so the median offset between begin marks and accounting
      // start times is this host's clock error. Correct it so cross-host
      // bucket attribution lines up again.
      std::vector<std::int64_t> diffs;
      for (const TimelineSample& s : seq) {
        if (s.header->mark != taccstats::SampleMark::kJobBegin) continue;
        if (const auto it = acct_start.find(s.header->job_id); it != acct_start.end()) {
          diffs.push_back(s.header->time - it->second);
        }
      }
      if (!diffs.empty()) {
        std::sort(diffs.begin(), diffs.end());
        const std::int64_t skew = diffs[(diffs.size() - 1) / 2];
        if (skew != 0) {
          for (TimelineSample& s : seq) s.header->time -= skew;
          hq.clock_skew_s = skew;
          ++res.stats.hosts_skewed;
        }
      }

      // Re-sort (stable: a no-op on clean data) and drop exact duplicates.
      std::stable_sort(seq.begin(), seq.end(),
                       [](const TimelineSample& a, const TimelineSample& b) {
                         return a.header->time < b.header->time;
                       });
      std::vector<TimelineSample> uniq;
      uniq.reserve(seq.size());
      for (const TimelineSample& s : seq) {
        if (!uniq.empty() && same_sample(s, uniq.back())) {
          ++hq.duplicates_dropped;
          continue;
        }
        uniq.push_back(s);
      }
      res.stats.duplicates_dropped += hq.duplicates_dropped;
      seq = std::move(uniq);

      // Jobs that begin on this host but never end while sampling continued
      // afterwards: the end mark was lost (node crash, dropped block). A job
      // whose last sample is also the host's last sample was simply still
      // running when collection stopped and is not counted.
      std::map<facility::JobId, std::pair<bool, bool>> marks;  // begin, end
      std::map<facility::JobId, std::size_t> last_ix;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        const Header* s = seq[i].header;
        if (s->job_id == 0) continue;
        if (s->mark == taccstats::SampleMark::kJobBegin) marks[s->job_id].first = true;
        if (s->mark == taccstats::SampleMark::kJobEnd) marks[s->job_id].second = true;
        last_ix[s->job_id] = i;
      }
      for (const auto& [id, be] : marks) {
        if (be.first && !be.second && last_ix[id] + 1 < seq.size()) ++hq.missing_job_end;
      }
      res.stats.missing_job_end += hq.missing_job_end;
    }

    const Header* prev = nullptr;
    PairSample prev_view;
    std::set<facility::JobId> jobs_touched;
    for (const TimelineSample& ts : seq) {
      const Header& sample = *ts.header;
      const PairSample view(*ts.keys, ts.ix);
      ++res.stats.samples;
      ++hq.samples;
      if (prev != nullptr && sample.time - prev->time > max_gap) {
        // Collection gap (outage / collector restart): no rates attributable.
        ++res.stats.gaps_skipped;
      } else if (prev != nullptr) {
        PairData pd;
        if (extract_pair(prev_view, view, pd, pair_policy)) {
          ++res.stats.pairs;
          ++hq.pairs;
          hq.covered_s += pd.dt;
          if (pd.reset) {
            ++res.stats.resets_clamped;
            ++hq.resets;
          }
          if (pd.rollover) {
            ++res.stats.rollovers_corrected;
            ++hq.rollovers;
          }
          // Distribute the pair across the buckets it overlaps so bucket
          // totals are exact even for off-grid samples (job begin/end).
          const bool in_job = prev->job_id != 0 && prev->job_id == sample.job_id;
          for (common::TimePoint bt = prev->time; bt < sample.time;) {
            const auto bi = static_cast<std::size_t>((bt - t0) / bucket_len);
            const common::TimePoint bucket_end =
                t0 + static_cast<common::Duration>(bi + 1) * bucket_len;
            const common::TimePoint span_end = std::min(sample.time, bucket_end);
            const double frac = static_cast<double>(span_end - bt) / pd.dt;
            bt = span_end;
            if (bi >= res.sys.n) continue;
            const double dts = frac * pd.dt;
            res.sys.up_s[bi] += dts;
            if (in_job) res.sys.active_s[bi] += dts;
            if (pd.flops_valid) res.sys.flops[bi] += pd.flops * frac;
            res.sys.mem_w[bi] += pd.mem_gb * dts;
            res.sys.mem_t[bi] += dts;
            res.sys.user_cs[bi] += pd.user_cs * frac;
            res.sys.idle_cs[bi] += pd.idle_cs * frac;
            res.sys.sys_cs[bi] += pd.sys_cs * frac;
            res.sys.scratch_wr[bi] += pd.scratch_wr * frac;
            res.sys.scratch_rd[bi] += pd.scratch_rd * frac;
            res.sys.work_wr[bi] += pd.work_wr * frac;
            res.sys.share_bytes[bi] += pd.share_bytes * frac;
            res.sys.ib_tx[bi] += pd.ib_tx * frac;
            res.sys.lnet_tx[bi] += pd.lnet_tx * frac;
          }
          // Job-level accumulation: both endpoints inside the same job.
          if (in_job) {
            JobAccum& ja = res.jobs[prev->job_id];
            ja.user_cs += pd.user_cs;
            ja.sys_cs += pd.sys_cs;
            ja.idle_cs += pd.idle_cs;
            ja.total_cs += pd.total_cs;
            if (pd.flops_valid) {
              ja.flops += pd.flops;
              ja.flops_node_s += pd.dt;
            }
            ja.node_s += pd.dt;
            ja.mem_w += pd.mem_gb * pd.dt;
            ja.mem_t += pd.dt;
            ja.mem_max = std::max(ja.mem_max, pd.mem_max_gb);
            ja.scratch_wr += pd.scratch_wr;
            ja.scratch_rd += pd.scratch_rd;
            ja.work_wr += pd.work_wr;
            ja.ib_tx += pd.ib_tx;
            ja.ib_rx += pd.ib_rx;
            ja.lnet_tx += pd.lnet_tx;
            ja.lnet_rx += pd.lnet_rx;
            ja.swap_bytes += pd.swap_bytes;
            ja.load_w += pd.load * pd.dt;
            ++ja.samples;
            ja.first_seen = std::min(ja.first_seen, prev->time);
            ja.last_seen = std::max(ja.last_seen, sample.time);
            jobs_touched.insert(prev->job_id);
          }
        }
      }
      prev = ts.header;
      prev_view = view;
    }
    for (const facility::JobId id : jobs_touched) ++res.jobs[id].hosts;
    res.quality.push_back(std::move(hq));
  };

  common::ThreadPool pool(config_.threads);
  {
    std::vector<std::future<void>> futs;
    futs.reserve(nchunks);
    for (std::size_t c = 0; c < nchunks; ++c) {
      futs.push_back(pool.submit([&, c] {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(hosts.size(), lo + chunk);
        for (std::size_t h = lo; h < hi; ++h) process_host(*hosts[h], partials[c]);
      }));
    }
    for (auto& f : futs) f.get();
  }

  // Deterministic merge in chunk order.
  IngestResult out;
  SysAccum sys(buckets);
  std::map<facility::JobId, JobAccum> jobs;
  for (auto& p : partials) {
    sys.merge(p.sys);
    for (auto& [id, ja] : p.jobs) jobs[id].merge(ja);
    out.stats.bytes += p.stats.bytes;
    out.stats.files += p.stats.files;
    out.stats.samples += p.stats.samples;
    out.stats.pairs += p.stats.pairs;
    out.stats.gaps_skipped += p.stats.gaps_skipped;
    out.stats.quarantined += p.stats.quarantined;
    out.stats.duplicates_dropped += p.stats.duplicates_dropped;
    out.stats.reordered += p.stats.reordered;
    out.stats.resets_clamped += p.stats.resets_clamped;
    out.stats.rollovers_corrected += p.stats.rollovers_corrected;
    out.stats.missing_job_end += p.stats.missing_job_end;
    out.stats.hosts_skewed += p.stats.hosts_skewed;
    out.quality.hosts.insert(out.quality.hosts.end(),
                             std::make_move_iterator(p.quality.begin()),
                             std::make_move_iterator(p.quality.end()));
    out.quality.quarantines.insert(out.quality.quarantines.end(),
                                   std::make_move_iterator(p.quarantines.begin()),
                                   std::make_move_iterator(p.quarantines.end()));
  }
  out.quality.span = config_.span;
  out.stats.jobs_seen = jobs.size();

  // Join with accounting + Lariat + the project/science registry.
  std::map<facility::JobId, const accounting::AccountingRecord*> acct_by_id;
  for (const auto& a : acct) acct_by_id[a.job_id] = &a;
  const lariat::LariatIndex lidx(lariat_records);

  for (const auto& [id, ja] : jobs) {
    const auto ait = acct_by_id.find(id);
    if (ja.node_s <= 0.0 || ja.mem_t <= 0.0) {
      ++out.stats.jobs_excluded;
      continue;
    }
    const accounting::AccountingRecord* ar =
        ait != acct_by_id.end() ? ait->second : nullptr;
    const lariat::LariatRecord* lr = lidx.find(id);

    JobSummary j;
    j.id = id;
    j.cluster = config_.cluster;
    if (ar == nullptr) {
      ++out.stats.missing_acct;
      if (!salvage) {
        ++out.stats.jobs_excluded;
        continue;
      }
      // Reconcile from the samples + the Lariat side channel: observed
      // extent bounds the job, Lariat restores identity when present.
      if (ja.last_seen - ja.first_seen < config_.min_job_seconds) {
        ++out.stats.jobs_excluded;
        continue;
      }
      j.reconciled = true;
      ++out.stats.jobs_reconciled;
      j.user = lr != nullptr ? lr->user : "(unknown)";
      j.submit = ja.first_seen;
      j.start = ja.first_seen;
      j.end = ja.last_seen;
      j.nodes = lr != nullptr ? lr->nodes : ja.hosts;
      j.cores = lr != nullptr ? lr->cores : 0;
      j.node_hours =
          static_cast<double>(j.nodes) * common::to_hours(ja.last_seen - ja.first_seen);
    } else {
      if (ar->wallclock() < config_.min_job_seconds) {
        ++out.stats.jobs_excluded;
        continue;
      }
      j.user = ar->owner;
      j.project = ar->account;
      j.submit = ar->submit;
      j.start = ar->start;
      j.end = ar->end;
      j.nodes = ar->nodes;
      j.cores = ar->slots;
      j.node_hours = static_cast<double>(ar->nodes) * common::to_hours(ar->wallclock());
      j.exit_status = ar->exit_status;
      j.failed = ar->failed;
      if (const auto sit = project_science.find(ar->account); sit != project_science.end()) {
        j.science = sit->second;
      }
    }
    if (lr != nullptr) {
      j.app = lariat::app_for_exe(catalogue, lr->exe);
    } else {
      ++out.stats.missing_lariat;
    }
    j.samples = ja.samples;

    j.cpu_idle = ja.total_cs > 0 ? ja.idle_cs / ja.total_cs : 0.0;
    j.cpu_user = ja.total_cs > 0 ? ja.user_cs / ja.total_cs : 0.0;
    j.cpu_system = ja.total_cs > 0 ? ja.sys_cs / ja.total_cs : 0.0;
    j.flops_valid = ja.flops_node_s >= 0.5 * ja.node_s && ja.flops_node_s > 0.0;
    j.cpu_flops_gf_node = j.flops_valid ? ja.flops / 1.0e9 / ja.flops_node_s : 0.0;
    j.mem_used_gb = ja.mem_w / ja.mem_t;
    j.mem_used_max_gb = ja.mem_max;
    j.io_scratch_write_mb_s = ja.scratch_wr / kMb / ja.node_s;
    j.io_scratch_read_mb_s = ja.scratch_rd / kMb / ja.node_s;
    j.io_work_write_mb_s = ja.work_wr / kMb / ja.node_s;
    j.net_ib_tx_mb_s = ja.ib_tx / kMb / ja.node_s;
    j.net_ib_rx_mb_s = ja.ib_rx / kMb / ja.node_s;
    j.net_lnet_tx_mb_s = ja.lnet_tx / kMb / ja.node_s;
    j.net_lnet_rx_mb_s = ja.lnet_rx / kMb / ja.node_s;
    j.swap_mb_s = ja.swap_bytes / kMb / ja.node_s;
    j.load_mean = ja.node_s > 0 ? ja.load_w / ja.node_s : 0.0;
    out.jobs.push_back(std::move(j));
  }

  // Finalize the system series.
  SystemSeries& ss = out.series;
  ss.start = t0;
  ss.bucket = bucket_len;
  ss.buckets = buckets;
  const double bl = static_cast<double>(bucket_len);
  auto resize_all = [&](auto&... vs) { (vs.assign(buckets, 0.0), ...); };
  resize_all(ss.active_nodes, ss.up_nodes, ss.flops_tf, ss.mem_gb_per_node,
             ss.cpu_user_core_h, ss.cpu_idle_core_h, ss.cpu_system_core_h,
             ss.scratch_write_mb_s, ss.scratch_read_mb_s, ss.work_write_mb_s, ss.share_mb_s,
             ss.ib_tx_mb_s, ss.lnet_tx_mb_s, ss.cpu_idle_frac);
  for (std::size_t i = 0; i < buckets; ++i) {
    ss.active_nodes[i] = sys.active_s[i] / bl;
    ss.up_nodes[i] = sys.up_s[i] / bl;
    ss.flops_tf[i] = sys.flops[i] / 1.0e12 / bl;
    ss.mem_gb_per_node[i] = sys.mem_t[i] > 0 ? sys.mem_w[i] / sys.mem_t[i] : 0.0;
    ss.cpu_user_core_h[i] = sys.user_cs[i] / 100.0 / 3600.0;
    ss.cpu_idle_core_h[i] = sys.idle_cs[i] / 100.0 / 3600.0;
    ss.cpu_system_core_h[i] = sys.sys_cs[i] / 100.0 / 3600.0;
    ss.scratch_write_mb_s[i] = sys.scratch_wr[i] / kMb / bl;
    ss.scratch_read_mb_s[i] = sys.scratch_rd[i] / kMb / bl;
    ss.work_write_mb_s[i] = sys.work_wr[i] / kMb / bl;
    ss.share_mb_s[i] = sys.share_bytes[i] / kMb / bl;
    ss.ib_tx_mb_s[i] = sys.ib_tx[i] / kMb / bl;
    ss.lnet_tx_mb_s[i] = sys.lnet_tx[i] / kMb / bl;
    const double tot = sys.user_cs[i] + sys.idle_cs[i] + sys.sys_cs[i];
    ss.cpu_idle_frac[i] = tot > 0 ? sys.idle_cs[i] / tot : 0.0;
  }
  return out;
}

}  // namespace supremm::etl
