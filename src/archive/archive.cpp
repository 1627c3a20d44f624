#include "archive/archive.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "archive/tables.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/strings.h"
#include "common/pool.h"
#include "warehouse/aggstate.h"

namespace supremm::archive {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kCommitName = "COMMIT";      // journaled post-commit manifest
constexpr const char* kStagingName = ".staging";   // per-commit staging area
constexpr const char* kManifestHeader = "supremm-archive v1";

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw common::NotFoundError("archive: cannot open " + path.string());
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw common::ParseError("archive: read failed for " + path.string());
  return data;
}

/// Write via a durable temp file + rename + directory fsync so a crash never
/// leaves a half-written file under the final name and the publish itself is
/// durable. A failed rename (cross-filesystem target, injected fault) is
/// wrapped in a sourced ArchiveError naming the offending path instead of
/// letting the raw filesystem exception escape.
void write_file_atomic(const fs::path& path, std::string_view data,
                       common::IoPolicy* io) {
  const std::string tmp = path.string() + ".tmp";
  common::io::write_file(tmp, data, io, /*durable=*/true);
  try {
    common::io::rename(tmp, path.string(), io);
  } catch (const common::Error& e) {
    throw common::ArchiveError("atomic publish of " + path.string() + " failed: " + e.what());
  }
  common::io::fsync_dir(path.parent_path().string(), io);
}

std::uint32_t parse_hex32(std::string_view s) {
  if (s.empty() || s.size() > 8) throw common::ParseError("archive: bad hex field in manifest");
  std::uint32_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      throw common::ParseError("archive: bad hex field in manifest");
    }
  }
  return v;
}

std::string serialize_manifest(const Manifest& m) {
  std::string out;
  out += kManifestHeader;
  out += '\n';
  out += common::strprintf("start %lld\n", static_cast<long long>(m.start));
  out += common::strprintf("bucket %lld\n", static_cast<long long>(m.bucket));
  out += "cluster " + m.cluster + "\n";
  out += "context " + m.context + "\n";
  out += common::strprintf("watermark %lld\n", static_cast<long long>(m.watermark));
  out += common::strprintf("rewrite_from %lld\n", static_cast<long long>(m.rewrite_from));
  out += common::strprintf("epoch %llu\n", static_cast<unsigned long long>(m.epoch));
  for (const auto& p : m.partitions) {
    out += common::strprintf("p %s %lld %llu %08x %llu %s\n", p.table.c_str(),
                             static_cast<long long>(p.day),
                             static_cast<unsigned long long>(p.rows), p.crc,
                             static_cast<unsigned long long>(p.bytes), p.filename.c_str());
  }
  out += common::strprintf("crc %08x\n", common::crc32(out));
  return out;
}

Manifest parse_manifest(std::string_view text) {
  // The trailing "crc NNNNNNNN\n" line checksums everything before it.
  const std::size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string_view::npos || (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    throw common::ParseError("archive: manifest missing checksum line");
  }
  const std::uint32_t stored = parse_hex32(common::trim(text.substr(crc_pos + 4)));
  if (common::crc32(text.substr(0, crc_pos)) != stored) {
    throw common::ParseError("archive: manifest checksum mismatch");
  }

  Manifest m;
  bool header_seen = false;
  for (const auto line_sv : common::split(text.substr(0, crc_pos), '\n')) {
    const std::string_view line = common::trim(line_sv);
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != kManifestHeader) throw common::ParseError("archive: bad manifest header");
      header_seen = true;
      continue;
    }
    const std::size_t sp = line.find(' ');
    const std::string_view key = line.substr(0, sp);
    const std::string_view rest = sp == std::string_view::npos ? "" : line.substr(sp + 1);
    if (key == "start") {
      m.start = common::parse_i64(rest);
    } else if (key == "bucket") {
      m.bucket = common::parse_i64(rest);
    } else if (key == "cluster") {
      m.cluster = std::string(rest);
    } else if (key == "context") {
      m.context = std::string(rest);
    } else if (key == "watermark") {
      m.watermark = common::parse_i64(rest);
    } else if (key == "rewrite_from") {
      m.rewrite_from = common::parse_i64(rest);
    } else if (key == "epoch") {
      m.epoch = common::parse_u64(rest);
    } else if (key == "p") {
      const auto f = common::split_ws(rest);
      if (f.size() != 6) throw common::ParseError("archive: bad partition line in manifest");
      PartitionInfo p;
      p.table = std::string(f[0]);
      p.day = common::parse_i64(f[1]);
      p.rows = common::parse_u64(f[2]);
      p.crc = parse_hex32(f[3]);
      p.bytes = common::parse_u64(f[4]);
      p.filename = std::string(f[5]);
      m.partitions.push_back(std::move(p));
    } else {
      throw common::ParseError("archive: unknown manifest key '" + std::string(key) + "'");
    }
  }
  if (!header_seen) throw common::ParseError("archive: empty manifest");
  // A checksum only proves the manifest is the one that was written, not that
  // its fields make sense; loaders size buffers from (watermark - start) /
  // bucket, so these two invariants must hold before anyone trusts the index.
  if (m.bucket <= 0) {
    throw common::ParseError("archive: manifest bucket must be positive");
  }
  if (m.watermark < m.start) {
    throw common::ParseError("archive: manifest watermark precedes start");
  }
  return m;
}

std::optional<Manifest> try_load_manifest(const std::string& dir) {
  const fs::path path = fs::path(dir) / kManifestName;
  if (!fs::exists(path)) return std::nullopt;
  return parse_manifest(read_file(path));
}

/// Verify a partition file against its manifest record and decode it; on
/// any failure record a quarantine entry — classed as missing (the manifest
/// names a file that is gone) or corrupt (present but failing size/CRC/
/// decode verification) — and return nullopt.
std::optional<DecodedPartition> try_read_partition(
    const std::string& dir, const PartitionInfo& p,
    const std::vector<warehouse::PredicateBounds>* prune,
    std::vector<etl::PartitionQuarantine>& quarantined) {
  auto reject = [&](std::string reason, etl::PartitionFault fault) {
    quarantined.push_back({p.table, p.day, p.filename, std::move(reason), fault});
    return std::nullopt;
  };
  std::string bytes;
  try {
    bytes = read_file(fs::path(dir) / p.filename);
  } catch (const common::NotFoundError& e) {
    return reject(e.what(), etl::PartitionFault::kMissing);
  } catch (const common::Error& e) {
    return reject(e.what(), etl::PartitionFault::kCorrupt);
  }
  if (bytes.size() != p.bytes) {
    return reject(common::strprintf("size mismatch: %zu bytes, manifest says %llu", bytes.size(),
                                    static_cast<unsigned long long>(p.bytes)),
                  etl::PartitionFault::kCorrupt);
  }
  if (common::crc32(bytes) != p.crc) {
    return reject("file CRC mismatch", etl::PartitionFault::kCorrupt);
  }
  try {
    DecodedPartition dp = decode_partition(bytes, prune);
    if (dp.table.name() != p.table) {
      return reject("table name mismatch", etl::PartitionFault::kCorrupt);
    }
    return dp;
  } catch (const common::Error& e) {
    return reject(e.what(), etl::PartitionFault::kCorrupt);
  }
}

/// Quiet integrity probe used by recovery: does `path` hold exactly the
/// bytes the manifest record promises?
bool file_matches(const fs::path& path, const PartitionInfo& p) {
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const common::Error&) {
    return false;
  }
  return bytes.size() == p.bytes && common::crc32(bytes) == p.crc;
}

/// Best guess at the table an orphaned partition file belonged to, for the
/// recovery quarantine record ("jobs-d000003-e000002.part" -> "jobs").
std::string table_of_orphan(const std::string& filename) {
  const std::size_t dash = filename.find('-');
  return dash == std::string::npos ? filename : filename.substr(0, dash);
}

/// Natural sort-key column restoring the order ingest produced: jobs come
/// out sorted by id, series by time, quality by host.
std::string_view sort_key_for(std::string_view table) {
  if (table == kJobsTable) return "job_id";
  if (table == kSeriesTable) return "time";
  if (table == kQualityTable) return "host";
  return "";
}

void append_row(warehouse::Table& dst, const warehouse::Table& src, std::size_t r) {
  auto row = dst.append();
  for (const auto& c : src.columns()) {
    switch (c.type()) {
      case warehouse::ColType::kDouble:
        row.set(c.name(), c.as_double(r));
        break;
      case warehouse::ColType::kInt64:
        row.set(c.name(), c.as_int64(r));
        break;
      case warehouse::ColType::kString:
        row.set(c.name(), c.as_string(r));
        break;
    }
  }
}

etl::SystemSeries slice_series(const etl::SystemSeries& s, std::size_t lo, std::size_t hi) {
  etl::SystemSeries out;
  out.start = s.time_at(lo);
  out.bucket = s.bucket;
  out.buckets = hi - lo;
  for (const auto& f : series_fields()) {
    (out.*f.member).assign((s.*f.member).begin() + static_cast<std::ptrdiff_t>(lo),
                           (s.*f.member).begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

}  // namespace

// --- Reader ---

Reader::Reader(std::string dir, std::size_t threads)
    : dir_(std::move(dir)), threads_(threads) {
  auto m = try_load_manifest(dir_);
  if (!m) throw common::ParseError("archive: no manifest in " + dir_);
  manifest_ = std::move(*m);
}

std::vector<DecodedPartition> Reader::decode_table(
    std::string_view name, const std::vector<warehouse::PredicateBounds>* prune) {
  std::vector<const PartitionInfo*> parts;
  for (const auto& p : manifest_.partitions) {
    if (p.table == name) parts.push_back(&p);
  }
  std::sort(parts.begin(), parts.end(),
            [](const PartitionInfo* a, const PartitionInfo* b) { return a->day < b->day; });
  if (parts.empty()) {
    throw common::NotFoundError("archive: no partitions for table '" + std::string(name) + "'");
  }

  // Partitions are independent: verify + decode each on the pool into its
  // own slot, then merge in day order so the concatenated tables and the
  // quarantine list come out identical for any thread count.
  std::vector<std::optional<DecodedPartition>> decoded(parts.size());
  std::vector<std::vector<etl::PartitionQuarantine>> quarantines(parts.size());
  common::pool_run(parts.size(), threads_, 1, [&](std::size_t i) {
    decoded[i] = try_read_partition(dir_, *parts[i], prune, quarantines[i]);
  });

  std::vector<DecodedPartition> out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    quarantined_.insert(quarantined_.end(), quarantines[i].begin(), quarantines[i].end());
    if (decoded[i]) {
      chunks_total_ += decoded[i]->chunks_total;
      chunks_pruned_ += decoded[i]->chunks_pruned;
      ++partitions_loaded_;
      out.push_back(std::move(*decoded[i]));
    }
  }
  if (out.empty()) {
    throw common::ParseError("archive: every partition of table '" + std::string(name) +
                             "' is quarantined");
  }
  return out;
}

warehouse::Table Reader::table(std::string_view name, std::size_t chunk_rows) {
  const auto parts = decode_table(name, nullptr);

  // Restore the canonical row order across partitions: collect (partition,
  // row) references, stable-sort them by the table's natural key, and emit.
  const std::string_view key = sort_key_for(name);
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (partition, row)
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t r = 0; r < parts[p].table.rows(); ++r) order.emplace_back(p, r);
  }
  if (!key.empty() && parts.front().table.has_col(key)) {
    const bool by_string =
        parts.front().table.col(key).type() == warehouse::ColType::kString;
    std::stable_sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
      const warehouse::Column& ca = parts[a.first].table.col(key);
      const warehouse::Column& cb = parts[b.first].table.col(key);
      if (by_string) return ca.as_string(a.second) < cb.as_string(b.second);
      return ca.as_int64(a.second) < cb.as_int64(b.second);
    });
  }

  std::vector<std::pair<std::string, warehouse::ColType>> schema;
  for (const auto& c : parts.front().table.columns()) schema.emplace_back(c.name(), c.type());
  warehouse::Table out(parts.front().table.name(), std::move(schema));
  for (const auto& [p, r] : order) append_row(out, parts[p].table, r);
  out.rebuild_zone_index(chunk_rows);
  return out;
}

warehouse::Table Reader::table_pruned(std::string_view name,
                                      const std::vector<warehouse::PredicateBounds>& bounds,
                                      std::size_t chunk_rows) {
  const auto parts = decode_table(name, &bounds);
  std::vector<std::pair<std::string, warehouse::ColType>> schema;
  for (const auto& c : parts.front().table.columns()) schema.emplace_back(c.name(), c.type());
  warehouse::Table out(parts.front().table.name(), std::move(schema));
  for (const auto& part : parts) {
    for (std::size_t r = 0; r < part.table.rows(); ++r) append_row(out, part.table, r);
  }
  out.rebuild_zone_index(chunk_rows);
  return out;
}

// --- Archive ---

Archive::Archive(std::string dir, std::size_t threads, common::IoPolicy* io)
    : dir_(std::move(dir)), threads_(threads), io_(io) {
  recover();
  manifest_ = try_load_manifest(dir_);
}

const Manifest& Archive::manifest() const {
  if (!manifest_) throw common::NotFoundError("archive: " + dir_ + " is empty");
  return *manifest_;
}

void Archive::recover() {
  namespace cio = common::io;
  if (!fs::exists(dir_)) return;
  const fs::path manifest_path = fs::path(dir_) / kManifestName;
  const fs::path commit_path = fs::path(dir_) / kCommitName;
  const fs::path staging = fs::path(dir_) / kStagingName;

  // A journaled commit is trustworthy only if its manifest text parses and
  // self-checksums; a torn COMMIT write fails the CRC and reads as absent.
  std::optional<Manifest> journal;
  if (fs::exists(commit_path)) {
    try {
      journal = parse_manifest(read_file(commit_path));
    } catch (const common::Error&) {
      journal.reset();
    }
  }
  std::optional<Manifest> published;
  bool manifest_damaged = false;
  if (fs::exists(manifest_path)) {
    try {
      published = parse_manifest(read_file(manifest_path));
    } catch (const common::Error&) {
      manifest_damaged = true;  // externally damaged: the open will throw
    }
  }

  // Roll forward: the journal is newer than the published manifest and every
  // partition it names verifies (already moved into place, or still staged).
  // The commit reached its durability point, so finishing it is mandatory —
  // and idempotent, because each step checks before acting.
  if (journal && (!published || journal->epoch > published->epoch)) {
    bool complete = true;
    for (const auto& p : journal->partitions) {
      if (!file_matches(fs::path(dir_) / p.filename, p) &&
          !file_matches(staging / p.filename, p)) {
        complete = false;
        break;
      }
    }
    if (complete) {
      for (const auto& p : journal->partitions) {
        if (file_matches(fs::path(dir_) / p.filename, p)) continue;
        cio::rename((staging / p.filename).string(),
                    (fs::path(dir_) / p.filename).string(), io_);
      }
      cio::fsync_dir(dir_, io_);
      cio::rename(commit_path.string(), manifest_path.string(), io_);
      cio::fsync_dir(dir_, io_);
      recovery_.commits_rolled_forward += 1;
      published = std::move(journal);
      journal.reset();
      manifest_damaged = false;
    }
  }

  if (manifest_damaged) return;  // cannot tell orphans apart; ctor throws ParseError

  // Roll back: any COMMIT / staging remnant left at this point belongs to a
  // commit that died before its durability point (or an unverifiable one).
  // Discard it; the published manifest remains the archive's state.
  bool discarded_commit = false;
  if (fs::exists(commit_path)) {
    cio::remove(commit_path.string(), io_);
    discarded_commit = true;
  }
  if (fs::exists(staging)) {
    // An empty staging dir is GC debris from a commit that already published
    // (or rolled forward above) — removing it is housekeeping, not a
    // discarded commit. Only staged payload files mark a real rollback.
    for (const auto& entry : fs::directory_iterator(staging)) {
      cio::remove(entry.path().string(), io_);
      discarded_commit = true;
    }
    cio::remove(staging.string(), io_);
  }
  if (discarded_commit) recovery_.commits_rolled_back += 1;

  // Orphan GC: partition files no manifest references (stale partitions a
  // crashed post-publish cleanup left behind, or data from a discarded
  // commit) and abandoned temp files. Quarantine-record each orphaned
  // partition so the loss is visible to operators, then drop it.
  std::vector<std::string> referenced_less_orphans;
  std::vector<fs::path> orphans;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".tmp") {
      orphans.push_back(entry.path());
      continue;
    }
    if (entry.path().extension() != ".part") continue;
    bool referenced = false;
    if (published) {
      for (const auto& p : published->partitions) {
        if (p.filename == name) referenced = true;
      }
    }
    if (!referenced) orphans.push_back(entry.path());
  }
  std::sort(orphans.begin(), orphans.end());  // deterministic accounting order
  for (const auto& path : orphans) {
    const std::string name = path.filename().string();
    if (path.extension() == ".part") {
      recovery_quarantines_.push_back({table_of_orphan(name), -1, name,
                                       "orphaned by an interrupted commit; removed by recovery",
                                       etl::PartitionFault::kOrphaned});
    }
    cio::remove(path.string(), io_);
    recovery_.orphans_removed += 1;
  }
  if (discarded_commit || !orphans.empty()) cio::fsync_dir(dir_, io_);
}

void Archive::commit(Manifest& m, const std::vector<StagedPartition>& staged,
                     const std::vector<std::string>& stale) {
  namespace cio = common::io;
  const fs::path staging = fs::path(dir_) / kStagingName;
  // Phase 1 — up to and including the atomic publish. Any failure here is
  // rolled back on the spot: scrub the staging remnants without consulting
  // the policy (cleanup after an injected fault must not re-enter it), keep
  // the pre-commit manifest, and surface a sourced ArchiveError. A
  // SimulatedCrash is not a common::Error and flies through untouched.
  try {
    cio::mkdirs(dir_, io_);
    cio::mkdirs(staging.string(), io_);
    for (const auto& s : staged) {
      cio::write_file((staging / s.info.filename).string(), s.bytes, io_, /*durable=*/true);
    }
    cio::fsync_dir(staging.string(), io_);
    // Journal the complete post-commit manifest. Once COMMIT and the
    // directory entries are durable the commit must survive any crash: this
    // is the durability point recovery rolls forward from.
    write_file_atomic(fs::path(dir_) / kCommitName, serialize_manifest(m), io_);
    for (const auto& s : staged) {
      cio::rename((staging / s.info.filename).string(),
                  (fs::path(dir_) / s.info.filename).string(), io_);
    }
    cio::fsync_dir(dir_, io_);
    // The atomic publish: readers see the old manifest until this rename.
    cio::rename((fs::path(dir_) / kCommitName).string(), (fs::path(dir_) / kManifestName).string(),
                io_);
    cio::fsync_dir(dir_, io_);
  } catch (const common::ArchiveError&) {
    std::error_code ec;
    fs::remove(fs::path(dir_) / kCommitName, ec);
    fs::remove_all(staging, ec);
    throw;
  } catch (const common::Error& e) {
    std::error_code ec;
    fs::remove(fs::path(dir_) / kCommitName, ec);
    fs::remove_all(staging, ec);
    throw common::ArchiveError("commit to " + dir_ + " failed, pre-commit state kept: " +
                               e.what());
  }
  // Phase 2 — cleanup after the publish. The commit has already succeeded;
  // a failure here leaves only orphans, which the next open's recovery
  // garbage-collects, so injected faults are swallowed (a SimulatedCrash
  // still propagates: the process is "dead").
  try {
    for (const auto& f : stale) {
      bool still_used = false;
      for (const auto& p : m.partitions) {
        if (p.filename == f) still_used = true;
      }
      if (!still_used) cio::remove((fs::path(dir_) / f).string(), io_);
    }
    cio::remove(staging.string(), io_);  // empty by now
    cio::fsync_dir(dir_, io_);
  } catch (const common::Error&) {
    // orphaned stale files / staging dir; recovered at next open
  }
}

AppendStats Archive::append(const etl::IngestConfig& cfg,
                            const std::vector<taccstats::RawFile>& files,
                            const std::vector<accounting::AccountingRecord>& acct,
                            const std::vector<lariat::LariatRecord>& lariat_records,
                            const std::vector<facility::AppSignature>& catalogue,
                            const std::unordered_map<std::string, std::string>& project_science,
                            std::string_view context, common::TimePoint upto) {
  using common::kDay;
  if (cfg.start % kDay != 0) {
    throw common::InvalidArgument("archive: ingest start must be day-aligned");
  }
  if (upto % kDay != 0) throw common::InvalidArgument("archive: upto must be day-aligned");
  if (upto <= cfg.start) throw common::InvalidArgument("archive: upto must be after start");
  if (cfg.span != upto - cfg.start) {
    throw common::InvalidArgument("archive: cfg.span must equal upto - cfg.start");
  }
  if (cfg.bucket <= 0 || kDay % cfg.bucket != 0) {
    throw common::InvalidArgument("archive: bucket must evenly divide one day");
  }
  const common::Duration max_gap = cfg.max_pair_gap > 0 ? cfg.max_pair_gap : 3 * cfg.bucket;
  if (max_gap > kDay) {
    throw common::InvalidArgument(
        "archive: max_pair_gap beyond one day breaks day-partitioned append");
  }

  const std::int64_t day0 = common::day_of(cfg.start);
  const std::int64_t day_end = common::day_of(upto);  // exclusive
  std::int64_t prev_final = day0;
  if (manifest_) {
    if (manifest_->start != cfg.start || manifest_->bucket != cfg.bucket ||
        manifest_->cluster != cfg.cluster || manifest_->context != context) {
      throw common::InvalidArgument("archive: " + dir_ +
                                    " was written with a different configuration");
    }
    if (upto <= manifest_->watermark) return {};  // nothing new
    prev_final = manifest_->rewrite_from;
  }

  // Days >= prev_final are (re)computed this append. Ingest needs raw files
  // back to the earliest accounting start among jobs ending after the
  // boundary (for complete job accumulation) and one day before the first
  // recomputed day (for cross-midnight sample pairs).
  const common::TimePoint boundary = prev_final * kDay;
  std::int64_t cutoff = prev_final - 1;
  for (const auto& a : acct) {
    if (a.end > boundary) cutoff = std::min(cutoff, common::day_of(a.start));
  }
  cutoff = std::max(cutoff, day0);

  // day_end is included: the boundary sample at exactly `upto` (and the end
  // marks of jobs finishing there) lands in that file. Any samples it holds
  // beyond `upto` only influence the provisional last day, which the next
  // append rewrites, and buckets past the span, which ingest drops.
  std::vector<const taccstats::RawFile*> window;
  for (const auto& f : files) {
    if (f.day >= cutoff && f.day <= day_end) window.push_back(&f);
  }

  const etl::IngestPipeline pipeline(cfg);
  etl::IngestResult res =
      pipeline.run(window, acct, lariat_records, catalogue, project_science);

  Manifest m;
  if (manifest_) {
    m = *manifest_;
  } else {
    m.start = cfg.start;
    m.bucket = cfg.bucket;
    m.cluster = cfg.cluster;
    m.context = std::string(context);
  }

  // Retire every partition this append rewrites: all days >= prev_final
  // plus the quality snapshot. Rollup partitions retire from the start of
  // the coarse bucket containing prev_final — a week/month/quarter cell
  // whose span includes a recomputed day must be rebuilt whole.
  const std::int64_t w0 =
      warehouse::floor_div(prev_final, warehouse::kDaysPerWeek) * warehouse::kDaysPerWeek;
  const std::int64_t m0 =
      warehouse::floor_div(prev_final, warehouse::kDaysPerMonth) * warehouse::kDaysPerMonth;
  const std::int64_t q0 =
      warehouse::floor_div(prev_final, warehouse::kDaysPerQuarter) * warehouse::kDaysPerQuarter;
  const auto retire_from = [&](std::string_view table) {
    if (table == warehouse::rollup::levels()[1].table) return w0;
    if (table == warehouse::rollup::levels()[2].table) return m0;
    if (table == warehouse::rollup::levels()[3].table) return q0;
    return prev_final;
  };
  const auto is_rollup_table = [](std::string_view table) {
    for (const auto& l : warehouse::rollup::levels()) {
      if (table == l.table) return true;
    }
    return false;
  };
  // Does the manifest carry maintained cells at all? An archive that
  // predates rollups — or whose previous append degraded and dropped them —
  // has none; this append then rebuilds coverage over the full retained
  // history instead of just the current quarter, restoring the
  // all-or-nothing invariant load_rollups() depends on.
  const bool had_rollups =
      std::any_of(m.partitions.begin(), m.partitions.end(),
                  [&](const PartitionInfo& p) { return is_rollup_table(p.table); });
  std::vector<std::string> stale;
  std::erase_if(m.partitions, [&](const PartitionInfo& p) {
    if (p.day >= retire_from(p.table) || p.table == kQualityTable) {
      stale.push_back(p.filename);
      return true;
    }
    return false;
  });

  // Encode everything first (pure compute, parallel inside the codec); all
  // disk I/O then happens inside the transactional commit. Filenames carry
  // the commit epoch so a commit never overwrites a live file and the old
  // manifest stays fully servable until the atomic publish.
  const std::uint64_t epoch = m.epoch + 1;
  const auto ell = static_cast<unsigned long long>(epoch);
  AppendStats stats;
  stats.days_ingested = day_end - prev_final;
  std::vector<StagedPartition> staged;
  auto persist = [&](const warehouse::Table& t, std::int64_t day, std::string filename) {
    StagedPartition s;
    s.bytes = encode_partition(t, day, kDefaultChunkRows, threads_);
    s.info.table = t.name();
    s.info.day = day;
    s.info.rows = t.rows();
    s.info.crc = common::crc32(s.bytes);
    s.info.bytes = s.bytes.size();
    s.info.filename = std::move(filename);
    ++stats.partitions_written;
    stats.rows_written += s.info.rows;
    stats.bytes_written += s.info.bytes;
    m.partitions.push_back(s.info);
    staged.push_back(std::move(s));
  };

  // Jobs, partitioned by ending day. A job ending after `upto` is still
  // running: park it in the provisional last day, which the next append
  // recomputes with its remaining samples.
  std::map<std::int64_t, std::vector<etl::JobSummary>> jobs_by_day;
  for (auto& j : res.jobs) {
    if (j.end <= boundary) continue;  // final in an earlier partition
    const std::int64_t d = std::min(common::day_of(j.end - 1), day_end - 1);
    jobs_by_day[d].push_back(std::move(j));  // keeps ingest's id order per day
  }
  for (const auto& [d, js] : jobs_by_day) {
    persist(jobs_table(js), d,
            common::strprintf("jobs-d%06lld-e%06llu.part", static_cast<long long>(d), ell));
  }

  // System series, one partition per recomputed day.
  const auto bpd = static_cast<std::size_t>(kDay / cfg.bucket);
  for (std::int64_t d = prev_final; d < day_end; ++d) {
    const auto lo = static_cast<std::size_t>(d - day0) * bpd;
    persist(series_table(slice_series(res.series, lo, lo + bpd)), d,
            common::strprintf("series-d%06lld-e%06llu.part", static_cast<long long>(d), ell));
  }

  // Per-host quality: a snapshot of this append's ingest window.
  persist(quality_to_table(res.quality), -1,
          common::strprintf("data_quality-snapshot-e%06llu.part", ell));

  // --- rollup maintenance (DESIGN.md §16) --------------------------------
  // Incremental: only the day cells of rewritten days and the coarse
  // buckets containing them are rebuilt — never the whole history. The
  // retained days of those coarse buckets are re-read from their immutable
  // jobs partitions (at most one quarter's worth, except when recovering
  // from a degraded or pre-rollup manifest), folded together with this
  // append's jobs, and the touched cells are staged into the same
  // crash-consistent commit as everything else. A retained partition that
  // fails to re-read degrades the append to committing no rollup partitions
  // at all rather than failing it.
  {
    std::vector<etl::JobSummary> combined;
    for (const auto& [d, js] : jobs_by_day) {
      combined.insert(combined.end(), js.begin(), js.end());
    }
    const std::int64_t read_from = had_rollups ? q0 : day0;
    bool readback_ok = true;
    for (const auto& p : m.partitions) {
      if (p.table != kJobsTable || p.day < read_from || p.day >= prev_final) continue;
      std::vector<etl::PartitionQuarantine> quar;
      auto dp = try_read_partition(dir_, p, nullptr, quar);
      if (!dp) {
        readback_ok = false;
        break;
      }
      auto js = jobs_from_table(dp->table);
      combined.insert(combined.end(), std::make_move_iterator(js.begin()),
                      std::make_move_iterator(js.end()));
      ++stats.rollup_days_read_back;
    }
    if (!readback_ok) {
      // Latent bitrot in a retained partition was tolerated before rollups
      // existed (it surfaces as a load-time quarantine), so it must not turn
      // an append into a hard failure now. Degrade instead: commit without
      // any rollup partitions so load_rollups() reports none and consumers
      // rebuild from the jobs they actually load; the first later append
      // that can read the history restores coverage from scratch (the
      // had_rollups full-rebuild path above).
      stats.rollup_maintenance_skipped = true;
      std::erase_if(m.partitions, [&](const PartitionInfo& p) {
        if (!is_rollup_table(p.table)) return false;
        stale.push_back(p.filename);
        return true;
      });
    } else {
      std::sort(combined.begin(), combined.end(),
                [](const etl::JobSummary& a, const etl::JobSummary& b) { return a.id < b.id; });

      const warehouse::Table all_jobs = jobs_table(combined);
      const warehouse::rollup::RollupSet rset = warehouse::rollup::build_from_table(all_jobs);
      std::int64_t stage_from[] = {prev_final, w0, m0, q0};
      if (!had_rollups) {
        // Full rebuild: every bucket of every level is (re)staged.
        for (auto& s : stage_from) s = std::numeric_limits<std::int64_t>::min();
      }
      for (std::size_t li = 0; li < warehouse::rollup::levels().size(); ++li) {
        const warehouse::Table& lt = rset.level(li);
        const auto buckets = lt.col("bucket").int64s();
        std::size_t r = 0;
        while (r < lt.rows()) {
          const std::int64_t b = buckets[r];
          std::size_t e = r;
          while (e < lt.rows() && buckets[e] == b) ++e;
          if (b >= stage_from[li]) {
            std::vector<std::pair<std::string, warehouse::ColType>> schema;
            for (const auto& c : lt.columns()) schema.emplace_back(c.name(), c.type());
            warehouse::Table part(lt.name(), std::move(schema));
            for (std::size_t i = r; i < e; ++i) append_row(part, lt, i);
            stats.rollup_cells_written += part.rows();
            ++stats.rollup_partitions_written;
            persist(part, b,
                    common::strprintf("%s-d%06lld-e%06llu.part", lt.name().c_str(),
                                      static_cast<long long>(b), ell));
          }
          r = e;
        }
      }
    }
  }

  m.watermark = upto;
  m.rewrite_from = day_end - 1;
  m.epoch = epoch;
  commit(m, staged, stale);

  manifest_ = std::move(m);
  for (const auto& hook : append_hooks_) hook(*manifest_);
  return stats;
}

LoadResult Archive::load() const {
  const Manifest& m = manifest();
  LoadResult out;

  std::vector<const PartitionInfo*> parts;
  for (const auto& p : m.partitions) parts.push_back(&p);
  std::sort(parts.begin(), parts.end(), [](const PartitionInfo* a, const PartitionInfo* b) {
    return std::tie(a->table, a->day) < std::tie(b->table, b->day);
  });

  // Decode every partition on the pool, then merge in (table, day) order so
  // the result and the quarantine list are identical for any thread count.
  std::vector<std::optional<DecodedPartition>> decoded(parts.size());
  std::vector<std::vector<etl::PartitionQuarantine>> quarantines(parts.size());
  common::pool_run(parts.size(), threads_, 1, [&](std::size_t i) {
    decoded[i] = try_read_partition(dir_, *parts[i], nullptr, quarantines[i]);
  });

  std::vector<warehouse::Table> series_parts;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const PartitionInfo* p = parts[i];
    out.quarantined.insert(out.quarantined.end(), quarantines[i].begin(), quarantines[i].end());
    auto& dp = decoded[i];
    if (!dp) continue;
    ++out.partitions_loaded;
    if (p->table == kJobsTable) {
      auto jobs = jobs_from_table(dp->table);
      out.result.jobs.insert(out.result.jobs.end(), std::make_move_iterator(jobs.begin()),
                             std::make_move_iterator(jobs.end()));
    } else if (p->table == kSeriesTable) {
      series_parts.push_back(std::move(dp->table));
    } else if (p->table == kQualityTable) {
      out.result.quality = quality_from_table(dp->table);
    } else if (warehouse::rollup::is_rollup_table(p->table)) {
      // Maintained aggregates: verified and counted here, materialized by
      // load_rollups(). Not part of the IngestResult round trip.
    } else {
      out.quarantined.push_back({p->table, p->day, p->filename, "unknown table"});
    }
  }

  // Jobs arrive day-major; restore ingest's id order.
  std::sort(out.result.jobs.begin(), out.result.jobs.end(),
            [](const etl::JobSummary& a, const etl::JobSummary& b) { return a.id < b.id; });

  // Series over [start, watermark); day partitions cover disjoint bucket
  // ranges, so they merge by addition into the zero-filled whole. Buckets
  // of quarantined days stay zero.
  const auto buckets = static_cast<std::size_t>((m.watermark - m.start) / m.bucket);
  out.result.series.start = m.start;
  out.result.series.bucket = m.bucket;
  out.result.series.buckets = buckets;
  for (const auto& f : series_fields()) (out.result.series.*f.member).assign(buckets, 0.0);
  for (const auto& part : series_parts) {
    const etl::SystemSeries piece = series_from_table(part, m.start, m.bucket, buckets);
    for (const auto& f : series_fields()) {
      for (std::size_t i = 0; i < buckets; ++i) {
        (out.result.series.*f.member)[i] += (piece.*f.member)[i];
      }
    }
  }

  // The quality report carries both load-time quarantines and what recovery
  // did when this handle was opened (orphaned files first: they were
  // discarded before anything was read).
  out.result.quality.corrupt_partitions = recovery_quarantines_;
  out.result.quality.corrupt_partitions.insert(out.result.quality.corrupt_partitions.end(),
                                               out.quarantined.begin(), out.quarantined.end());
  out.result.quality.recovery = recovery_;
  return out;
}

std::optional<warehouse::rollup::RollupSet> Archive::load_rollups() const {
  if (!manifest_) return std::nullopt;
  warehouse::rollup::RollupSet set;
  bool any = false;
  for (std::size_t li = 0; li < warehouse::rollup::levels().size(); ++li) {
    std::vector<const PartitionInfo*> parts;
    for (const auto& p : manifest_->partitions) {
      if (p.table == warehouse::rollup::levels()[li].table) parts.push_back(&p);
    }
    // One partition per bucket; day order restores the canonical
    // (bucket ASC, min_jobid ASC) cell order, each partition being sorted
    // within its bucket already.
    std::sort(parts.begin(), parts.end(),
              [](const PartitionInfo* a, const PartitionInfo* b) { return a->day < b->day; });
    warehouse::Table& dst = set.level(li);
    for (const PartitionInfo* p : parts) {
      std::vector<etl::PartitionQuarantine> quar;
      auto dp = try_read_partition(dir_, *p, nullptr, quar);
      if (!dp) return std::nullopt;  // partial rollups must not serve
      for (std::size_t r = 0; r < dp->table.rows(); ++r) append_row(dst, dp->table, r);
      any = true;
    }
  }
  if (!any) return std::nullopt;  // pre-rollup archive: caller rebuilds
  return set;
}

}  // namespace supremm::archive
