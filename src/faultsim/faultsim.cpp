#include "faultsim/faultsim.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/time.h"
#include "taccstats/reader.h"

namespace supremm::faultsim {

using common::RngStream;
using taccstats::ParsedFile;
using taccstats::RawFile;
using taccstats::Sample;

std::string_view fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kTruncateFile:
      return "truncate-file";
    case FaultKind::kGarbageLines:
      return "garbage-lines";
    case FaultKind::kInterleavedWrite:
      return "interleaved-write";
    case FaultKind::kDuplicateSample:
      return "duplicate-sample";
    case FaultKind::kReorderSamples:
      return "reorder-samples";
    case FaultKind::kCounterReset:
      return "counter-reset";
    case FaultKind::kCounterRollover:
      return "counter-rollover";
    case FaultKind::kMissingJobEnd:
      return "missing-job-end";
    case FaultKind::kDropAccounting:
      return "drop-accounting";
    case FaultKind::kDropLariat:
      return "drop-lariat";
    case FaultKind::kClockSkew:
      return "clock-skew";
    case FaultKind::kCorruptArchive:
      return "corrupt-archive";
  }
  return "unknown";
}

const std::vector<std::string>& FaultPlan::profile_names() {
  static const std::vector<std::string> kNames = {
      "none",         "truncation",   "garbage",    "shuffle",
      "counter_glitch", "lost_records", "clock_skew", "bitrot", "chaos"};
  return kNames;
}

FaultPlan FaultPlan::profile(std::string_view name, std::uint64_t seed) {
  FaultPlan p = none(seed);
  if (name == "none") return p;
  if (name == "truncation") return p.add(FaultKind::kTruncateFile, 0.25, 0.6);
  if (name == "garbage") {
    return p.add(FaultKind::kGarbageLines, 0.2, 3).add(FaultKind::kInterleavedWrite, 0.2);
  }
  if (name == "shuffle") {
    return p.add(FaultKind::kDuplicateSample, 0.25).add(FaultKind::kReorderSamples, 0.25);
  }
  if (name == "counter_glitch") {
    return p.add(FaultKind::kCounterReset, 0.3).add(FaultKind::kCounterRollover, 0.3);
  }
  if (name == "lost_records") {
    return p.add(FaultKind::kMissingJobEnd, 0.2)
        .add(FaultKind::kDropAccounting, 0.08)
        .add(FaultKind::kDropLariat, 0.08);
  }
  if (name == "clock_skew") return p.add(FaultKind::kClockSkew, 0.3, 120);
  if (name == "bitrot") return p.add(FaultKind::kCorruptArchive, 0.3, 4);
  if (name == "chaos") {
    return p.add(FaultKind::kTruncateFile, 0.1, 0.7)
        .add(FaultKind::kGarbageLines, 0.1, 2)
        .add(FaultKind::kInterleavedWrite, 0.1)
        .add(FaultKind::kDuplicateSample, 0.1)
        .add(FaultKind::kReorderSamples, 0.1)
        .add(FaultKind::kCounterReset, 0.15)
        .add(FaultKind::kCounterRollover, 0.15)
        .add(FaultKind::kMissingJobEnd, 0.1)
        .add(FaultKind::kDropAccounting, 0.04)
        .add(FaultKind::kDropLariat, 0.04)
        .add(FaultKind::kClockSkew, 0.15, 120);
  }
  throw common::NotFoundError("fault profile '" + std::string(name) + "'");
}

namespace {

constexpr std::string_view kPerfTypes[] = {"amd64_pmc", "intel_wtm"};

bool is_perf_type(std::string_view type) {
  for (const auto t : kPerfTypes) {
    if (type == t) return true;
  }
  return false;
}

enum class LineClass : std::uint8_t { kOther, kHeader, kRow };

LineClass classify(const std::string& line) {
  if (line.empty()) return LineClass::kOther;
  const char c = line[0];
  if (c == '$' || c == '!') return LineClass::kOther;
  // A '-' lead is still a header: clock skew can push times negative, and
  // type rows are alphabetic (mirrors the reader's classification).
  if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
      (c == '-' && line.size() > 1 &&
       std::isdigit(static_cast<unsigned char>(line[1])) != 0)) {
    return LineClass::kHeader;
  }
  return LineClass::kRow;
}

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    lines.emplace_back(content.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  std::size_t total = 0;
  for (const auto& l : lines) total += l.size() + 1;
  out.reserve(total);
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::size_t token_count(const std::string& line) {
  return common::split_ws(line).size();
}

/// Sample-block boundaries: index of every sample-header line.
std::vector<std::size_t> block_starts(const std::vector<std::string>& lines) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (classify(lines[i]) == LineClass::kHeader) starts.push_back(i);
  }
  return starts;
}

std::size_t block_end(const std::vector<std::size_t>& starts, std::size_t b,
                      std::size_t nlines) {
  return b + 1 < starts.size() ? starts[b + 1] : nlines;
}

/// Time of the block's header line (headers are well formed when this runs).
std::int64_t block_time(const std::vector<std::string>& lines, std::size_t header) {
  const auto parts = common::split_ws(lines[header]);
  return common::parse_i64(parts[0]);
}

/// Stable per-unit stream: damage depends only on (seed, kind, identity),
/// never on iteration order.
RngStream unit_stream(std::uint64_t seed, std::string_view purpose, std::uint64_t ix) {
  return RngStream(seed, purpose, ix);
}

std::uint64_t host_ix(const std::string& host) { return common::hash_string(host); }

std::uint64_t file_ix(const RawFile& f) {
  return common::splitmix64(common::hash_string(f.hostname) ^
                            common::splitmix64(static_cast<std::uint64_t>(f.day)));
}

/// One raw file in the nested form the counter-glitch faults edit.
struct NestedFile {
  std::string hostname;
  taccstats::SchemaRegistry schemas;
  std::vector<Sample> samples;

  explicit NestedFile(const ParsedFile& pf)
      : hostname(pf.hostname), schemas(pf.registry()), samples(taccstats::to_samples(pf)) {}

  [[nodiscard]] std::string serialize() const {
    const taccstats::RawWriter writer(hostname, schemas);
    std::string out = writer.header();
    for (const auto& s : samples) writer.append_sample(s, out);
    return out;
  }
};

/// Cut the file mid-row: everything from the cut point on is lost and the
/// partial row salvages as exactly one short-row quarantine.
bool truncate_file(RawFile& file, RngStream& rng, double magnitude, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  double frac = magnitude > 0 ? magnitude : 0.6;
  frac = std::clamp(frac, 0.05, 0.95);
  const auto from = static_cast<std::size_t>(frac * static_cast<double>(lines.size()));
  std::size_t cut = lines.size();
  for (std::size_t i = from; i < lines.size(); ++i) {
    if (classify(lines[i]) == LineClass::kRow && token_count(lines[i]) >= 2) {
      cut = i;
      break;
    }
  }
  if (cut == lines.size()) {
    for (std::size_t i = std::min(from, lines.size() - 1) + 1; i-- > 0;) {
      if (classify(lines[i]) == LineClass::kRow && token_count(lines[i]) >= 2) {
        cut = i;
        break;
      }
    }
  }
  if (cut == lines.size()) return false;
  std::uint64_t lost = 0;
  for (std::size_t i = cut + 1; i < lines.size(); ++i) {
    if (classify(lines[i]) == LineClass::kHeader) ++lost;
  }
  (void)rng;
  const std::string partial = lines[cut].substr(0, lines[cut].find(' '));
  lines.resize(cut);
  file.content = join_lines(lines) + partial;  // mid-write: no trailing newline
  rep.samples_lost += lost;
  ++rep.files_truncated;
  ++rep.expected_quarantined;
  return true;
}

/// Re-store one sample block verbatim right after itself: salvage must drop
/// exactly one duplicate.
bool duplicate_sample(RawFile& file, RngStream& rng, bool truncated, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  const auto starts = block_starts(lines);
  if (starts.empty()) return false;
  // A truncated file's final block ends in a partial row; duplicating it
  // would double the quarantine, so it is excluded.
  const std::size_t nblocks = truncated ? starts.size() - 1 : starts.size();
  if (nblocks == 0) return false;
  const auto b = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(nblocks) - 1));
  const std::size_t lo = starts[b];
  const std::size_t hi = block_end(starts, b, lines.size());
  std::vector<std::string> copy(lines.begin() + static_cast<std::ptrdiff_t>(lo),
                                lines.begin() + static_cast<std::ptrdiff_t>(hi));
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(hi), copy.begin(), copy.end());
  file.content = join_lines(lines);
  if (truncated) {
    // join_lines re-terminated the partial final row; restore the cut.
    file.content.pop_back();
  }
  ++rep.duplicated_samples;
  return true;
}

/// Swap two adjacent sample blocks with distinct times: salvage re-sorts
/// them and counts exactly one out-of-order sample.
bool reorder_samples(RawFile& file, RngStream& rng, bool truncated, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  const auto starts = block_starts(lines);
  const std::size_t nblocks = truncated && !starts.empty() ? starts.size() - 1 : starts.size();
  std::vector<std::size_t> candidates;
  for (std::size_t b = 0; b + 1 < nblocks; ++b) {
    if (block_time(lines, starts[b]) < block_time(lines, starts[b + 1])) {
      candidates.push_back(b);
    }
  }
  if (candidates.empty()) return false;
  const std::size_t b = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const std::size_t lo = starts[b];
  const std::size_t mid = starts[b + 1];
  const std::size_t hi = block_end(starts, b + 1, lines.size());
  std::vector<std::string> swapped;
  swapped.reserve(hi - lo);
  swapped.insert(swapped.end(), lines.begin() + static_cast<std::ptrdiff_t>(mid),
                 lines.begin() + static_cast<std::ptrdiff_t>(hi));
  swapped.insert(swapped.end(), lines.begin() + static_cast<std::ptrdiff_t>(lo),
                 lines.begin() + static_cast<std::ptrdiff_t>(mid));
  std::copy(swapped.begin(), swapped.end(), lines.begin() + static_cast<std::ptrdiff_t>(lo));
  file.content = join_lines(lines);
  if (truncated) file.content.pop_back();
  ++rep.reorder_swaps;
  return true;
}

/// Remove a job-end sample block whose begin mark is present on the host:
/// salvage counts exactly one missing job end. The final block of the host's
/// last file is never dropped (ingest only counts a missing end when sampling
/// provably continued after the job's last sample), nor is the partial final
/// block of a truncated file.
bool drop_job_end(RawFile& file, RngStream& rng, bool exclude_last_block,
                  const std::set<std::int64_t>& begun, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  const auto starts = block_starts(lines);
  const std::size_t nblocks =
      exclude_last_block && !starts.empty() ? starts.size() - 1 : starts.size();
  std::vector<std::size_t> candidates;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const auto parts = common::split_ws(lines[starts[b]]);
    if (parts.size() == 3 && parts[2] == "end" &&
        begun.count(common::parse_i64(parts[1])) != 0) {
      candidates.push_back(b);
    }
  }
  if (candidates.empty()) return false;
  const std::size_t b = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const std::size_t lo = starts[b];
  const std::size_t hi = block_end(starts, b, lines.size());
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(lo),
              lines.begin() + static_cast<std::ptrdiff_t>(hi));
  const bool partial_tail = !file.content.empty() && file.content.back() != '\n';
  file.content = join_lines(lines);
  if (partial_tail) file.content.pop_back();
  ++rep.job_ends_dropped;
  ++rep.samples_lost;
  return true;
}

/// Merge two adjacent well-formed data rows into one line (unsynchronized
/// append): salvage quarantines exactly one field-count-mismatch row.
bool interleave_rows(RawFile& file, RngStream& rng, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (classify(lines[i]) == LineClass::kRow && classify(lines[i + 1]) == LineClass::kRow &&
        token_count(lines[i]) >= 2 && token_count(lines[i + 1]) >= 2) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return false;
  const std::size_t i = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  lines[i] += ' ';
  lines[i] += lines[i + 1];
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  const bool partial_tail = !file.content.empty() && file.content.back() != '\n';
  file.content = join_lines(lines);
  if (partial_tail) file.content.pop_back();
  ++rep.interleaved_rows;
  ++rep.expected_quarantined;
  return true;
}

/// Splice foreign lines into the stream: each salvages as exactly one
/// quarantined line (undeclared type, or orphan row in the header region).
void garbage_lines(RawFile& file, RngStream& rng, double magnitude, InjectionReport& rep) {
  auto lines = split_lines(file.content);
  const auto n = static_cast<std::size_t>(magnitude > 0 ? magnitude : 2);
  std::vector<std::size_t> positions;
  positions.reserve(n);
  std::vector<std::string> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(lines.size()))));
    payloads.push_back(common::strprintf(
        "#corrupt %016llx", static_cast<unsigned long long>(
                                rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()))));
  }
  // Insert from the back so earlier positions stay valid.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return positions[a] > positions[b]; });
  for (const std::size_t i : order) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(positions[i]), payloads[i]);
  }
  const bool partial_tail = !file.content.empty() && file.content.back() != '\n';
  file.content = join_lines(lines);
  if (partial_tail) file.content.pop_back();
  rep.garbage_lines += n;
  rep.expected_quarantined += n;
}

/// Host-wide parsed view used by the counter-glitch faults.
struct HostSamples {
  std::vector<NestedFile> files;
  std::vector<Sample*> seq;  // all samples, day order
};

HostSamples parse_host(const std::vector<RawFile*>& host_files) {
  HostSamples hs;
  hs.files.reserve(host_files.size());
  for (const RawFile* f : host_files) hs.files.emplace_back(taccstats::parse_raw(f->content));
  for (auto& pf : hs.files) {
    for (auto& s : pf.samples) hs.seq.push_back(&s);
  }
  return hs;
}

constexpr common::Duration kUsablePairGap = 15 * common::kMinute;

/// Usable-pair candidates: adjacent samples close enough that ingest will
/// turn them into a rate pair.
std::vector<std::size_t> pair_candidates(const std::vector<Sample*>& seq) {
  std::vector<std::size_t> out;
  for (std::size_t k = 1; k < seq.size(); ++k) {
    const auto dt = seq[k]->time - seq[k - 1]->time;
    if (dt > 0 && dt <= kUsablePairGap) out.push_back(k);
  }
  return out;
}

const std::vector<std::uint64_t>* cpu_row0(const Sample* s) {
  const auto* rec = s->find("cpu");
  if (rec == nullptr || rec->rows.empty()) return nullptr;
  return &rec->rows[0].values;
}

/// Node reboot: every event counter restarts from zero at sample k and
/// counts on from there, across the rest of the host's files. Exactly one
/// pair (k-1, k) is reset-corrected; every later delta is unchanged.
bool inject_reset(HostSamples& hs, RngStream& rng, InjectionReport& rep) {
  std::vector<std::size_t> candidates;
  for (const std::size_t k : pair_candidates(hs.seq)) {
    const auto* prev_cpu = cpu_row0(hs.seq[k - 1]);
    // The reset is detected through a counter that was nonzero before it.
    if (prev_cpu != nullptr && prev_cpu->size() > 3 && (*prev_cpu)[3] > 0 &&
        cpu_row0(hs.seq[k]) != nullptr) {
      candidates.push_back(k);
    }
  }
  if (candidates.empty()) return false;
  const std::size_t k = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const auto& schemas = hs.files.front().schemas.all();
  for (const auto& schema : schemas) {
    if (is_perf_type(schema.type)) continue;  // perf slots clear per job already
    const auto* at_k = hs.seq[k]->find(schema.type);
    if (at_k == nullptr) continue;
    for (std::size_t f = 0; f < schema.fields.size(); ++f) {
      if (schema.fields[f].kind != taccstats::FieldKind::kEvent) continue;
      for (std::size_t r = 0; r < at_k->rows.size(); ++r) {
        if (f >= at_k->rows[r].values.size()) continue;
        const std::uint64_t base = at_k->rows[r].values[f];
        if (base == 0) continue;
        // Only shift counters that stay monotonic over the shifted suffix;
        // anything that restarts on its own (e.g. per-job clears) is left
        // alone so no extra reset pair appears.
        bool monotonic = true;
        for (std::size_t j = k; j < hs.seq.size() && monotonic; ++j) {
          const auto* rec = hs.seq[j]->find(schema.type);
          if (rec == nullptr || r >= rec->rows.size() ||
              f >= rec->rows[r].values.size()) {
            continue;
          }
          monotonic = rec->rows[r].values[f] >= base;
        }
        if (!monotonic) continue;
        for (std::size_t j = k; j < hs.seq.size(); ++j) {
          auto* rec = const_cast<taccstats::TypeRecord*>(hs.seq[j]->find(schema.type));
          if (rec == nullptr || r >= rec->rows.size() || f >= rec->rows[r].values.size()) {
            continue;
          }
          rec->rows[r].values[f] -= base;
        }
      }
    }
  }
  ++rep.counter_resets;
  return true;
}

/// u64 wrap-around: shift one monotonic counter so it crosses 2^64 between
/// one chosen pair. Every delta is preserved under wrapped arithmetic, so
/// salvage output matches clean output except for exactly one
/// rollover-corrected pair.
bool inject_rollover(HostSamples& hs, RngStream& rng, InjectionReport& rep) {
  constexpr std::size_t kIdle = 3;  // cpu schema: user nice system idle ...
  // The shifted counter must be monotonic across the whole host timeline.
  std::uint64_t last = 0;
  for (const Sample* s : hs.seq) {
    const auto* row = cpu_row0(s);
    if (row == nullptr || row->size() <= kIdle) continue;
    if ((*row)[kIdle] < last) return false;
    last = (*row)[kIdle];
  }
  std::vector<std::size_t> candidates;
  for (const std::size_t g : pair_candidates(hs.seq)) {
    const auto* pa = cpu_row0(hs.seq[g - 1]);
    const auto* pb = cpu_row0(hs.seq[g]);
    if (pa != nullptr && pb != nullptr && pa->size() > kIdle && pb->size() > kIdle &&
        (*pb)[kIdle] > (*pa)[kIdle]) {
      candidates.push_back(g);
    }
  }
  if (candidates.empty()) return false;
  const std::size_t g = candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
  const std::uint64_t va = (*cpu_row0(hs.seq[g - 1]))[kIdle];
  const std::uint64_t vb = (*cpu_row0(hs.seq[g]))[kIdle];
  const std::uint64_t mid = va + (vb - va + 1) / 2;  // va < mid <= vb
  const std::uint64_t shift = 0ULL - mid;            // counters >= mid wrap past 2^64
  for (Sample* s : hs.seq) {
    auto* rec = const_cast<taccstats::TypeRecord*>(s->find("cpu"));
    if (rec == nullptr || rec->rows.empty() || rec->rows[0].values.size() <= kIdle) continue;
    rec->rows[0].values[kIdle] += shift;
  }
  ++rep.counter_rollovers;
  return true;
}

/// Shift every sample time on one host by a constant: salvage estimates the
/// offset from job-begin marks vs accounting starts and removes it.
bool inject_skew(std::vector<RawFile*>& host_files, RngStream& rng, double magnitude,
                 const std::unordered_set<std::int64_t>& acct_jobs, InjectionReport& rep) {
  // The correction needs at least one begin mark with an accounting record.
  bool correctable = false;
  for (const RawFile* f : host_files) {
    for (const auto& line : split_lines(f->content)) {
      if (classify(line) != LineClass::kHeader) continue;
      const auto parts = common::split_ws(line);
      if (parts.size() == 3 && parts[2] == "begin" &&
          acct_jobs.count(common::parse_i64(parts[1])) != 0) {
        correctable = true;
        break;
      }
    }
    if (correctable) break;
  }
  if (!correctable) return false;
  const auto mag = static_cast<std::int64_t>(magnitude > 0 ? magnitude : 300);
  const std::int64_t skew = rng.uniform_int(1, mag) * (rng.chance(0.5) ? -1 : 1);
  for (RawFile* f : host_files) {
    auto lines = split_lines(f->content);
    for (auto& line : lines) {
      if (classify(line) != LineClass::kHeader) continue;
      const std::size_t sp = line.find(' ');
      const std::int64_t t = common::parse_i64(line.substr(0, sp));
      line = std::to_string(t + skew) + line.substr(sp);
    }
    f->content = join_lines(lines);
  }
  ++rep.hosts_skewed;
  rep.skews.emplace_back(host_files.front()->hostname, skew);
  return true;
}

}  // namespace

InjectionReport FaultInjector::apply(std::vector<RawFile>& files,
                                     std::vector<accounting::AccountingRecord>& acct,
                                     std::vector<lariat::LariatRecord>& lariat) const {
  InjectionReport rep;
  const auto spec = [&](FaultKind k) -> const FaultSpec* {
    for (const auto& f : plan_.faults) {
      if (f.kind == k && f.rate > 0) return &f;
    }
    return nullptr;
  };
  const std::uint64_t seed = plan_.seed;

  std::map<std::string, std::vector<RawFile*>> hosts;
  for (auto& f : files) hosts[f.hostname].push_back(&f);
  for (auto& [host, fs] : hosts) {
    std::sort(fs.begin(), fs.end(),
              [](const RawFile* a, const RawFile* b) { return a->day < b->day; });
  }

  // Value-level faults first, while every file still parses strictly.
  const auto* reset = spec(FaultKind::kCounterReset);
  const auto* rollover = spec(FaultKind::kCounterRollover);
  if (reset != nullptr || rollover != nullptr) {
    for (auto& [host, fs] : hosts) {
      RngStream reset_rng = unit_stream(seed, "faultsim.reset", host_ix(host));
      RngStream roll_rng = unit_stream(seed, "faultsim.rollover", host_ix(host));
      const bool want_reset = reset != nullptr && reset_rng.chance(reset->rate);
      const bool want_roll = rollover != nullptr && roll_rng.chance(rollover->rate);
      if (!want_reset && !want_roll) continue;
      HostSamples hs = parse_host(fs);
      bool touched = false;
      if (want_reset) touched = inject_reset(hs, reset_rng, rep) || touched;
      if (want_roll) touched = inject_rollover(hs, roll_rng, rep) || touched;
      if (touched) {
        for (std::size_t i = 0; i < fs.size(); ++i) {
          fs[i]->content = hs.files[i].serialize();
        }
      }
    }
  }

  if (const auto* skew = spec(FaultKind::kClockSkew); skew != nullptr) {
    std::unordered_set<std::int64_t> acct_jobs;
    acct_jobs.reserve(acct.size());
    for (const auto& a : acct) acct_jobs.insert(a.job_id);
    for (auto& [host, fs] : hosts) {
      RngStream rng = unit_stream(seed, "faultsim.skew", host_ix(host));
      if (!rng.chance(skew->rate)) continue;
      (void)inject_skew(fs, rng, skew->magnitude, acct_jobs, rep);
    }
  }

  // Structural text faults. Truncation runs before the block-level faults so
  // they can exclude the damaged final block, and the line-splice faults run
  // last so nothing rewrites their exactly-counted damage.
  std::unordered_set<const RawFile*> truncated;
  if (const auto* s = spec(FaultKind::kTruncateFile); s != nullptr) {
    for (auto& f : files) {
      RngStream rng = unit_stream(seed, "faultsim.truncate", file_ix(f));
      if (!rng.chance(s->rate)) continue;
      if (truncate_file(f, rng, s->magnitude, rep)) truncated.insert(&f);
    }
  }
  if (const auto* s = spec(FaultKind::kMissingJobEnd); s != nullptr) {
    for (auto& [host, fs] : hosts) {
      std::set<std::int64_t> begun;
      for (const RawFile* f : fs) {
        for (const auto& line : split_lines(f->content)) {
          if (classify(line) != LineClass::kHeader) continue;
          const auto parts = common::split_ws(line);
          if (parts.size() == 3 && parts[2] == "begin") {
            begun.insert(common::parse_i64(parts[1]));
          }
        }
      }
      const RawFile* host_last = fs.front();
      for (const RawFile* f : fs) {
        if (f->day > host_last->day) host_last = f;
      }
      for (RawFile* f : fs) {
        RngStream rng = unit_stream(seed, "faultsim.jobend", file_ix(*f));
        if (!rng.chance(s->rate)) continue;
        (void)drop_job_end(*f, rng, truncated.count(f) != 0 || f == host_last, begun, rep);
      }
    }
  }
  if (const auto* s = spec(FaultKind::kDuplicateSample); s != nullptr) {
    for (auto& f : files) {
      RngStream rng = unit_stream(seed, "faultsim.duplicate", file_ix(f));
      if (!rng.chance(s->rate)) continue;
      (void)duplicate_sample(f, rng, truncated.count(&f) != 0, rep);
    }
  }
  if (const auto* s = spec(FaultKind::kReorderSamples); s != nullptr) {
    for (auto& f : files) {
      RngStream rng = unit_stream(seed, "faultsim.reorder", file_ix(f));
      if (!rng.chance(s->rate)) continue;
      (void)reorder_samples(f, rng, truncated.count(&f) != 0, rep);
    }
  }
  if (const auto* s = spec(FaultKind::kInterleavedWrite); s != nullptr) {
    for (auto& f : files) {
      RngStream rng = unit_stream(seed, "faultsim.interleave", file_ix(f));
      if (!rng.chance(s->rate)) continue;
      (void)interleave_rows(f, rng, rep);
    }
  }
  if (const auto* s = spec(FaultKind::kGarbageLines); s != nullptr) {
    for (auto& f : files) {
      RngStream rng = unit_stream(seed, "faultsim.garbage", file_ix(f));
      if (!rng.chance(s->rate)) continue;
      garbage_lines(f, rng, s->magnitude, rep);
    }
  }

  if (const auto* s = spec(FaultKind::kDropAccounting); s != nullptr) {
    std::vector<accounting::AccountingRecord> kept;
    kept.reserve(acct.size());
    for (auto& r : acct) {
      RngStream rng = unit_stream(seed, "faultsim.acct",
                                  static_cast<std::uint64_t>(r.job_id));
      if (rng.chance(s->rate)) {
        rep.dropped_acct_jobs.push_back(r.job_id);
        ++rep.acct_dropped;
      } else {
        kept.push_back(std::move(r));
      }
    }
    acct = std::move(kept);
  }
  if (const auto* s = spec(FaultKind::kDropLariat); s != nullptr) {
    std::vector<lariat::LariatRecord> kept;
    kept.reserve(lariat.size());
    for (auto& r : lariat) {
      RngStream rng = unit_stream(seed, "faultsim.lariat",
                                  static_cast<std::uint64_t>(r.job_id));
      if (rng.chance(s->rate)) {
        rep.dropped_lariat_jobs.push_back(r.job_id);
        ++rep.lariat_dropped;
      } else {
        kept.push_back(std::move(r));
      }
    }
    lariat = std::move(kept);
  }
  return rep;
}

InjectionReport FaultInjector::apply_archive(const std::string& dir) const {
  namespace fs = std::filesystem;
  InjectionReport rep;
  const FaultSpec* s = nullptr;
  for (const auto& f : plan_.faults) {
    if (f.kind == FaultKind::kCorruptArchive && f.rate > 0) s = &f;
  }
  if (s == nullptr || !fs::exists(dir)) return rep;

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".part") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());

  for (const auto& name : names) {
    RngStream rng = unit_stream(plan_.seed, "faultsim.archive", common::hash_string(name));
    if (!rng.chance(s->rate)) continue;
    const fs::path path = fs::path(dir) / name;
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    }
    if (bytes.empty()) continue;
    const auto flips = static_cast<std::size_t>(s->magnitude > 0 ? s->magnitude : 1);
    for (std::size_t i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(
          static_cast<unsigned char>(bytes[pos]) ^
          static_cast<unsigned char>(1U << rng.uniform_int(0, 7)));
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++rep.partitions_corrupted;
    rep.corrupted_files.push_back(name);
  }
  return rep;
}

common::IoDecision KillPointPolicy::on_op(common::IoOp op, const std::string& path,
                                          std::size_t bytes) {
  const std::uint64_t n = ops_.fetch_add(1) + 1;
  if (n != kill_at_ || triggered_.exchange(true)) return common::IoDecision::proceed();
  if (mode_ == Mode::kTornWrite && op == common::IoOp::kWrite && bytes > 0) {
    // Persist a seeded prefix (possibly empty, never the whole buffer: that
    // would be a completed write) before dying.
    RngStream rng(seed_, "faultsim.torn", kill_at_);
    common::IoDecision d;
    d.action = common::IoDecision::Action::kTornWrite;
    d.torn_bytes =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(bytes) - 1));
    return d;
  }
  throw common::SimulatedCrash(op, path, n);
}

common::IoDecision EnospcPolicy::on_op(common::IoOp op, const std::string& path,
                                       std::size_t bytes) {
  (void)path;
  (void)bytes;
  const std::uint64_t n = ops_.fetch_add(1) + 1;
  const bool consumes_space = op == common::IoOp::kOpen || op == common::IoOp::kWrite ||
                              op == common::IoOp::kMkdir;
  if (n < full_from_ || !consumes_space) return common::IoDecision::proceed();
  failures_.fetch_add(1);
  common::IoDecision d;
  d.action = common::IoDecision::Action::kFail;
  d.error = "ENOSPC (injected): no space left on device";
  return d;
}

}  // namespace supremm::faultsim
