#include "etl/trace.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "etl/pair.h"
#include "taccstats/reader.h"

namespace supremm::etl {

std::vector<TracePoint> extract_job_trace(const std::vector<taccstats::RawFile>& files,
                                          facility::JobId id, common::Duration interval) {
  if (interval <= 0) throw common::InvalidArgument("trace interval must be positive");

  // Group files per host in day order (samples of one node are consecutive
  // within a host stream).
  std::map<std::string, std::vector<const taccstats::RawFile*>> by_host;
  for (const auto& f : files) by_host[f.hostname].push_back(&f);

  struct Accum {
    double dt = 0;
    double user_cs = 0, idle_cs = 0, total_cs = 0;
    double flops = 0, flops_s = 0;
    double mem_w = 0;
    double scratch_wr = 0, work_wr = 0, ib_tx = 0, lnet_tx = 0;
    std::map<std::string, bool> hosts;
  };
  std::map<common::TimePoint, Accum> buckets;

  for (auto& [host, fs] : by_host) {
    std::sort(fs.begin(), fs.end(), [](const taccstats::RawFile* a,
                                       const taccstats::RawFile* b) { return a->day < b->day; });
    // Every file of the host stays parsed: a pair can span two files.
    std::vector<taccstats::ParsedFile> parsed;
    std::vector<PairKeys> keys;
    parsed.reserve(fs.size());
    keys.reserve(fs.size());
    std::string perf_type;
    PairSample prev;
    std::size_t prev_file = 0;
    std::size_t prev_ix = 0;
    std::int64_t prev_job = 0;
    for (const auto* file : fs) {
      const taccstats::ParsedFile& pf = parsed.emplace_back(taccstats::parse_raw(file->content));
      if (perf_type.empty()) {
        perf_type = committed_perf_type(pf);
        if (!perf_type.empty() && prev.keys != nullptr) {
          // A pair reads the perf type known when it is extracted, and the
          // previous sample's keys predate it.
          keys[prev_file] = PairKeys(parsed[prev_file], perf_type);
          prev = PairSample(keys[prev_file], prev_ix);
        }
      }
      const PairKeys& k = keys.emplace_back(pf, perf_type);
      for (std::size_t i = 0; i < pf.samples.size(); ++i) {
        const PairSample sample(k, i);
        const std::int64_t job = pf.samples[i].job_id;
        if (prev.keys != nullptr && prev_job == id && job == id) {
          PairData pd;
          if (extract_pair(prev, sample, pd)) {
            const common::TimePoint key = (prev.time / interval) * interval;
            Accum& a = buckets[key];
            a.dt += pd.dt;
            a.user_cs += pd.user_cs;
            a.idle_cs += pd.idle_cs;
            a.total_cs += pd.total_cs;
            if (pd.flops_valid) {
              a.flops += pd.flops;
              a.flops_s += pd.dt;
            }
            a.mem_w += pd.mem_gb * pd.dt;
            a.scratch_wr += pd.scratch_wr;
            a.work_wr += pd.work_wr;
            a.ib_tx += pd.ib_tx;
            a.lnet_tx += pd.lnet_tx;
            a.hosts[host] = true;
          }
        }
        prev = sample;
        prev_file = keys.size() - 1;
        prev_ix = i;
        prev_job = job;
      }
    }
  }

  std::vector<TracePoint> out;
  out.reserve(buckets.size());
  for (const auto& [t, a] : buckets) {
    TracePoint p;
    p.t = t;
    p.dt = a.dt;
    p.nodes = a.hosts.size();
    p.cpu_idle = a.total_cs > 0 ? a.idle_cs / a.total_cs : 0.0;
    p.cpu_user = a.total_cs > 0 ? a.user_cs / a.total_cs : 0.0;
    p.flops_valid = a.flops_s > 0;
    p.flops_gf_node = p.flops_valid ? a.flops / 1.0e9 / a.flops_s : 0.0;
    p.mem_gb_node = a.dt > 0 ? a.mem_w / a.dt : 0.0;
    p.scratch_write_mb_s = a.dt > 0 ? a.scratch_wr / 1.0e6 / a.dt : 0.0;
    p.work_write_mb_s = a.dt > 0 ? a.work_wr / 1.0e6 / a.dt : 0.0;
    p.ib_tx_mb_s = a.dt > 0 ? a.ib_tx / 1.0e6 / a.dt : 0.0;
    p.lnet_tx_mb_s = a.dt > 0 ? a.lnet_tx / 1.0e6 / a.dt : 0.0;
    out.push_back(p);
  }
  return out;
}

}  // namespace supremm::etl
