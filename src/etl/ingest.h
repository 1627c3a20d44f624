// The ingest pipeline: raw TACC_Stats files + accounting + Lariat ->
// per-job summaries and facility time series.
//
// Mirrors the paper's Figure 1 workflow: raw node files are parsed, samples
// are matched to jobs by the embedded job id, counter deltas become rates,
// node-hour weighted job summaries are produced and loaded into the
// warehouse, and node data is aggregated into system-level metrics.
//
// Each raw file is decoded once, flat (taccstats/reader.h); a host's type
// indices and device ids are resolved once per file (etl/pair.h) and its
// samples are paired by index, so no nested Sample is built. The salvage
// repairs (skew, re-sort, dedup, lost end marks) run on the sample headers
// in place.
//
// Parallelism: hosts are partitioned into fixed-size chunks processed by a
// thread pool; chunk partials are merged in chunk order, so the result is
// bit-identical for any thread count.
//
// Robustness: the pipeline runs in one of two modes. Strict mode is
// all-or-nothing - a single malformed line aborts ingest with ParseError.
// Salvage mode degrades gracefully: damaged lines are quarantined, exact
// duplicates dropped, out-of-order samples re-sorted, counter resets and
// rollovers corrected, per-host clock skew estimated against accounting
// start times and removed, and jobs whose accounting records were lost are
// reconciled from the samples and Lariat side channel. On undamaged input
// the two modes produce bit-identical results; everything salvage repaired
// or discarded is counted in IngestStats and the per-host DataQualityReport.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "accounting/accounting.h"
#include "etl/job_summary.h"
#include "etl/quality.h"
#include "etl/system_series.h"
#include "facility/users.h"
#include "lariat/lariat.h"
#include "taccstats/writer.h"

namespace supremm::etl {

/// How the pipeline treats damaged raw data.
enum class IngestMode : std::uint8_t {
  kStrict,   // any malformed input throws ParseError (the seed behavior)
  kSalvage,  // recover everything well-formed, quarantine and count the rest
};

struct IngestConfig {
  common::TimePoint start = 0;
  common::Duration span = 0;                        // required
  common::Duration bucket = 10 * common::kMinute;   // system series bucket
  /// Jobs shorter than this are excluded from summaries (paper §4.1: "jobs
  /// included in this study are those longer than the default TACC_Stats
  /// sampling interval of 10 minutes").
  common::Duration min_job_seconds = 10 * common::kMinute;
  std::size_t threads = 0;       // 0 = hardware concurrency
  std::size_t hosts_per_chunk = 16;
  std::string cluster;           // cluster tag for summaries
  /// Sample pairs further apart than this are discarded: the node was down
  /// (maintenance) or the collector was not running, so no rate can be
  /// attributed to the gap. 0 = 3x the bucket width.
  common::Duration max_pair_gap = 0;
  IngestMode mode = IngestMode::kStrict;
};

struct IngestStats {
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
  std::uint64_t samples = 0;         // samples kept (salvage: after dedup)
  std::uint64_t pairs = 0;           // sample pairs turned into rates
  std::uint64_t gaps_skipped = 0;    // pairs discarded as collection gaps
  std::uint64_t jobs_seen = 0;       // distinct job ids in raw data
  std::uint64_t jobs_excluded = 0;   // filtered by min_job_seconds / no match

  // Salvage-mode damage accounting (all zero in strict mode / clean data).
  std::uint64_t quarantined = 0;           // malformed lines skipped
  std::uint64_t duplicates_dropped = 0;    // byte-identical repeated samples
  std::uint64_t reordered = 0;             // out-of-order samples re-sorted
  std::uint64_t resets_clamped = 0;        // pairs corrected for counter resets
  std::uint64_t rollovers_corrected = 0;   // pairs corrected for u64 rollover
  std::uint64_t missing_job_end = 0;       // (host, job) begin without end mark
  std::uint64_t missing_acct = 0;          // sampled jobs without accounting
  std::uint64_t missing_lariat = 0;        // summarized jobs without Lariat
  std::uint64_t jobs_reconciled = 0;       // summaries built without accounting
  std::uint64_t hosts_skewed = 0;          // hosts whose clock offset was fixed

  [[nodiscard]] bool operator==(const IngestStats&) const = default;
};

struct IngestResult {
  std::vector<JobSummary> jobs;  // sorted by job id
  SystemSeries series;
  IngestStats stats;
  DataQualityReport quality;     // per-host coverage and damage accounting
};

/// project -> parent science registry (the paper's allocation database side
/// channel), derivable from the synthetic population.
[[nodiscard]] std::unordered_map<std::string, std::string> project_science_map(
    const facility::UserPopulation& population);

class IngestPipeline {
 public:
  /// Validates the config; throws InvalidArgument naming the offending
  /// field (span, bucket, hosts_per_chunk, min_job_seconds, max_pair_gap).
  explicit IngestPipeline(IngestConfig config);

  /// Ingest `files` (any order: they are grouped by host and sorted by
  /// day). The contents are read in place, never copied.
  [[nodiscard]] IngestResult run(
      std::span<const taccstats::RawFile* const> files,
      const std::vector<accounting::AccountingRecord>& acct,
      const std::vector<lariat::LariatRecord>& lariat_records,
      const std::vector<facility::AppSignature>& catalogue,
      const std::unordered_map<std::string, std::string>& project_science) const;

  /// The same over a vector of files.
  [[nodiscard]] IngestResult run(
      const std::vector<taccstats::RawFile>& files,
      const std::vector<accounting::AccountingRecord>& acct,
      const std::vector<lariat::LariatRecord>& lariat_records,
      const std::vector<facility::AppSignature>& catalogue,
      const std::unordered_map<std::string, std::string>& project_science) const;

 private:
  IngestConfig config_;
};

}  // namespace supremm::etl
