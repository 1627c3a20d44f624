// perfbench: the end-to-end benchmark of the SUPReMM pipeline.
//
//   perfbench --workload adhoc|ingest|federated --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// Generates every input from the seed, sets the system up, measures for
// about S seconds, runs the workload's correctness gates, and prints the host
// record, every metric by name with its unit, and (last line) the result as
// one JSON object. --trace 0 reports the end-to-end metrics; --trace 1 is the
// separate traced run that reports the per-layer metrics. README.md maps
// every metric to its layer and workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

/// Every per-layer metric of the traced run, with its unit. The two tails
/// lead: they are end-to-end figures, reported here because they do not
/// repeat closely enough between runs on a shared host to carry a bound.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"latency_tail_ms", "ms"},
    {"freshness_tail_s", "s"},
    {"service.parse_us", "us"},
    {"service.queue_wait_ms", "ms"},
    {"service.republish_s", "s"},
    {"service.overhead_ms", "ms"},
    {"rollup.hit_rate", "ratio"},
    {"rollup.serve_us", "us"},
    {"query.scan_ms", "ms"},
    {"query.rows_scanned_per_s", "1/s"},
    {"query.rows_scanned_per_result_row", "ratio"},
    {"query.chunks_pruned_frac", "ratio"},
    {"xdmod.report_ms", "ms"},
    {"federation.prune_rate", "ratio"},
    {"federation.wire_bytes_per_query", "bytes"},
    {"federation.codec_us", "us"},
    {"federation.transport_ms", "ms"},
    {"federation.shard_exec_ms", "ms"},
    {"federation.merge_ms", "ms"},
    {"federation.straggler_ratio", "ratio"},
    {"etl.ingest_s", "s"},
    {"etl.raw_mb_per_s", "MB/s"},
    {"archive.append_s", "s"},
    {"archive.fsyncs_per_append", "count"},
    {"archive.io_ops_per_append", "count"},
    {"archive.bytes_written_per_append", "bytes"},
    {"archive.write_amp", "ratio"},
    {"archive.rollup_days_read_back", "count"},
    {"archive.rollup_cells_written", "count"},
    {"storage_ratio", "ratio"},
    {"taccstats.collect_s", "s"},
    {"taccstats.raw_mb", "MB"},
    {"facility.simulate_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload adhoc|ingest|federated --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

void fill_unused_layers(Result& r) {
  std::set<std::string> have;
  for (const Metric& m : r.metrics) have.insert(m.name);
  for (const auto& [name, unit] : kLayerMetrics) {
    if (have.count(name) == 0) r.metric(name, 0.0, unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--workdir") {
      opt.workdir = val;
    } else {
      return perfbench::usage();
    }
  }
  if (!have_seed || opt.workdir.empty() || !(opt.seconds > 0)) return perfbench::usage();
  std::filesystem::create_directories(opt.workdir);

  perfbench::Result r;
  try {
    if (opt.workload == "adhoc") {
      r = perfbench::run_adhoc(opt);
    } else if (opt.workload == "ingest") {
      r = perfbench::run_ingest(opt);
    } else if (opt.workload == "federated") {
      r = perfbench::run_federated(opt);
    } else {
      return perfbench::usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) perfbench::fill_unused_layers(r);
  r.note("workload", opt.workload + (opt.trace ? " (traced run)" : " (untraced run)"));
  r.note("seed", std::to_string(opt.seed));
  perfbench::print_result(r, perfbench::host_record(opt.workdir));
  return 0;
}
