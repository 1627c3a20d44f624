#include "taccstats/reader.h"

#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/error.h"
#include "common/strings.h"

namespace supremm::taccstats {

using common::strprintf;

SampleMark parse_mark(std::string_view name) {
  if (name == "periodic") return SampleMark::kPeriodic;
  if (name == "begin") return SampleMark::kJobBegin;
  if (name == "end") return SampleMark::kJobEnd;
  if (name == "rotate") return SampleMark::kRotate;
  throw common::ParseError("unknown sample mark '" + std::string(name) + "'");
}

std::string_view quarantine_reason_name(QuarantineReason r) noexcept {
  switch (r) {
    case QuarantineReason::kBadMetadata:
      return "bad-metadata";
    case QuarantineReason::kBadSchema:
      return "bad-schema";
    case QuarantineReason::kBadSampleHeader:
      return "bad-sample-header";
    case QuarantineReason::kUndeclaredType:
      return "undeclared-type";
    case QuarantineReason::kShortRow:
      return "short-row";
    case QuarantineReason::kFieldCountMismatch:
      return "field-count-mismatch";
    case QuarantineReason::kBadValue:
      return "bad-value";
    case QuarantineReason::kOrphanRow:
      return "orphan-row";
  }
  return "unknown";
}

SchemaRegistry ParsedFile::registry() const {
  return SchemaRegistry(std::vector<Schema>(
      schemas.begin(), schemas.begin() + static_cast<std::ptrdiff_t>(committed)));
}

std::size_t ParsedFile::schema_index(std::string_view type) const noexcept {
  for (std::size_t i = 0; i < schemas.size(); ++i) {
    if (schemas[i].type == type) return i;
  }
  return npos;
}

std::size_t ParsedFile::device_id(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (devices[i] == name) return i;
  }
  return npos;
}

std::vector<Sample> to_samples(const ParsedFile& file) {
  std::vector<Sample> out;
  out.reserve(file.samples.size());
  for (const auto& h : file.samples) {
    Sample s;
    s.time = h.time;
    s.job_id = h.job_id;
    s.mark = h.mark;
    s.records.reserve(h.record_end - h.record_begin);
    for (std::uint32_t r = h.record_begin; r < h.record_end; ++r) {
      const ParsedFile::Record& rec = file.records[r];
      TypeRecord tr;
      tr.type = file.schemas[rec.schema].type;
      tr.rows.reserve(rec.row_end - rec.row_begin);
      for (std::uint32_t i = rec.row_begin; i < rec.row_end; ++i) {
        const ParsedFile::Row& row = file.rows[i];
        const auto v = file.row_values(rec, row);
        tr.rows.push_back({file.devices[row.device], {v.begin(), v.end()}});
      }
      s.records.push_back(std::move(tr));
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

/// isspace() in the C locale: the token separators.
constexpr bool is_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Longest numeric token accepted: 63 characters, zero padding included
/// (the limit the format has always had).
constexpr std::size_t kMaxNumberChars = 63;

/// Cursor over the whitespace-separated tokens of one line.
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool next(std::string_view& tok) noexcept {
    while (p_ < end_ && is_space(*p_)) ++p_;
    if (p_ == end_) return false;
    const char* b = p_;
    while (p_ < end_ && !is_space(*p_)) ++p_;
    tok = {b, static_cast<std::size_t>(p_ - b)};
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

/// A counter value: digits only, at most 63 of them, fitting a u64.
bool parse_counter(std::string_view tok, std::uint64_t& out) noexcept {
  if (tok.empty() || tok.size() > kMaxNumberChars) return false;
  const bool may_overflow = tok.size() > 19;  // 19 digits always fit
  std::uint64_t v = 0;
  for (const char c : tok) {
    if (!is_digit(c)) return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (may_overflow && v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// A header time or job id: optional sign, then digits, within i64.
bool parse_signed(std::string_view tok, std::int64_t& out) noexcept {
  if (tok.empty() || tok.size() > kMaxNumberChars) return false;
  std::size_t i = 0;
  const bool neg = tok[0] == '-';
  if (tok[0] == '+' || neg) i = 1;
  if (i == tok.size()) return false;
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + (neg ? 1 : 0);
  std::uint64_t mag = 0;
  for (; i < tok.size(); ++i) {
    if (!is_digit(tok[i])) return false;
    const auto d = static_cast<std::uint64_t>(tok[i] - '0');
    if (mag > (limit - d) / 10) return false;
    mag = mag * 10 + d;
  }
  out = static_cast<std::int64_t>(neg ? 0 - mag : mag);
  return true;
}

bool mark_of(std::string_view name, SampleMark& out) noexcept {
  if (name == "periodic") {
    out = SampleMark::kPeriodic;
  } else if (name == "begin") {
    out = SampleMark::kJobBegin;
  } else if (name == "end") {
    out = SampleMark::kJobEnd;
  } else if (name == "rotate") {
    out = SampleMark::kRotate;
  } else {
    return false;
  }
  return true;
}

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// The one strict/salvage decode loop. With `sink == nullptr` any damage
/// throws ParseError (messages prefixed with `source`); otherwise each
/// malformed line becomes one Quarantine entry and decoding continues.
class Decoder {
 public:
  Decoder(std::string_view source, std::vector<Quarantine>* sink)
      : source_(source), sink_(sink) {}

  ParsedFile decode(std::string_view content, bool* missing_magic) {
    if (content.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw common::InvalidArgument("raw file of 4 GiB or more");
    }
    const char* p = content.data();
    const char* const end = p + content.size();
    while (p < end) {
      const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      const char* eol = nl != nullptr ? static_cast<const char*>(nl) : end;
      const std::string_view line(p, static_cast<std::size_t>(eol - p));
      p = eol + 1;
      ++line_no_;
      if (line.empty()) continue;
      const char c0 = line[0];
      if (c0 == '$') {
        metadata(line);
      } else if (c0 == '!') {
        schema(line);
      } else if (is_digit(c0) || (c0 == '-' && line.size() > 1 && is_digit(line[1]))) {
        // A leading '-' still means a header: type rows are alphabetic, and
        // a host whose clock runs behind the epoch start stamps negative
        // times.
        header(line);
      } else {
        row(line);
      }
    }
    close_sample();
    if (!saw_magic_) {
      if (sink_ == nullptr) {
        std::string msg;
        if (!source_.empty()) msg = std::string(source_) + ": ";
        throw common::ParseError(msg + "missing $tacc_stats magic");
      }
      if (missing_magic != nullptr) *missing_magic = true;
    }
    if (out_.committed == 0) out_.committed = out_.schemas.size();
    return std::move(out_);
  }

 private:
  void reject(QuarantineReason reason, std::string detail) {
    if (sink_ == nullptr) {
      std::string msg;
      if (!source_.empty()) msg = std::string(source_) + ": ";
      msg += detail + strprintf(" (line %zu)", line_no_);
      throw common::ParseError(msg);
    }
    sink_->push_back({std::string(source_), line_no_, reason, std::move(detail)});
  }

  void metadata(std::string_view line) {
    Tokens t(line.substr(1));
    std::string_view key;
    std::string_view value;
    if (!t.next(key)) {
      reject(QuarantineReason::kBadMetadata, "bad metadata line");
      return;
    }
    if (key == "tacc_stats" && t.next(value)) {
      out_.version = std::string(value);
      saw_magic_ = true;
    } else if (key == "hostname" && t.next(value)) {
      out_.hostname = std::string(value);
    }
  }

  void schema(std::string_view line) {
    Schema s;
    try {
      s = Schema::parse(line);
    } catch (const common::ParseError& e) {
      reject(QuarantineReason::kBadSchema, e.what());
      return;
    }
    if (schema_of(s.type) == kNone) {
      first_of_type_.push_back(static_cast<std::uint32_t>(out_.schemas.size()));
    }
    out_.schemas.push_back(std::move(s));
    record_of_.push_back(kNone);
    device_hint_.emplace_back();
  }

  void header(std::string_view line) {
    close_sample();
    Tokens t(line);
    std::string_view time, job, mark, extra;
    ParsedFile::Header h;
    const bool ok = t.next(time) && t.next(job) && t.next(mark) && !t.next(extra) &&
                    parse_signed(time, h.time) && parse_signed(job, h.job_id) &&
                    mark_of(mark, h.mark);
    if (!ok) {
      // Rows that follow a damaged header must not attach to the previous
      // sample - they belong to the lost one.
      reject(QuarantineReason::kBadSampleHeader, "bad sample header");
      return;
    }
    h.record_begin = h.record_end = static_cast<std::uint32_t>(out_.records.size());
    out_.samples.push_back(h);
    in_sample_ = true;
    // Commit the schemas seen so far on the first sample that sees any.
    if (out_.committed == 0) out_.committed = out_.schemas.size();
  }

  // Type row: <type> <device> <values...>
  void row(std::string_view line) {
    if (!in_sample_) {
      reject(QuarantineReason::kOrphanRow, "data row before sample header");
      return;
    }
    Tokens t(line);
    std::string_view type;
    std::string_view device;
    if (!t.next(type) || !t.next(device)) {
      reject(QuarantineReason::kShortRow, "short data row");
      return;
    }
    const std::uint32_t s = schema_of(type);
    if (s == kNone) {
      reject(QuarantineReason::kUndeclaredType,
             "row of undeclared type '" + std::string(type) + "'");
      return;
    }
    const std::size_t width = out_.schemas[s].fields.size();
    const std::size_t offset = out_.values.size();
    std::size_t n = 0;
    bool numeric = true;
    std::string_view tok;
    while (t.next(tok)) {
      std::uint64_t v = 0;
      if (numeric && n < width && parse_counter(tok, v)) {
        out_.values.push_back(v);
      } else {
        numeric = false;  // a bad value, or more values than the schema has
      }
      ++n;
    }
    if (n != width) {
      out_.values.resize(offset);
      reject(QuarantineReason::kFieldCountMismatch,
             strprintf("row of type %s has %zu values, schema has %zu",
                       std::string(type).c_str(), n, width));
      return;
    }
    if (!numeric) {
      out_.values.resize(offset);
      reject(QuarantineReason::kBadValue,
             "row of type " + std::string(type) + " has a non-numeric value");
      return;
    }

    std::uint32_t r = record_of_[s];
    if (r == kNone) {
      r = static_cast<std::uint32_t>(out_.records.size());
      const auto at = static_cast<std::uint32_t>(out_.rows.size());
      out_.records.push_back({s, at, at});
      record_of_[s] = r;
    }
    ParsedFile::Record& rec = out_.records[r];
    const std::size_t k = out_.rows.size() - rec.row_begin;  // position hint only
    out_.rows.push_back({device_of(device, s, k), static_cast<std::uint32_t>(offset)});
    row_record_.push_back(r);
    if (r + 1 == out_.records.size()) {
      rec.row_end = static_cast<std::uint32_t>(out_.rows.size());
    } else {
      regroup_ = true;  // this type's rows are not contiguous in the text
    }
  }

  /// Index of the first schema of `type`, or kNone. Rows follow schema
  /// order, so the last row's type and the one after it are tried first.
  std::uint32_t schema_of(std::string_view type) {
    const std::size_t n = first_of_type_.size();
    for (const std::size_t probe : {last_type_, last_type_ + 1}) {
      if (probe < n && out_.schemas[first_of_type_[probe]].type == type) {
        last_type_ = probe;
        return first_of_type_[probe];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (out_.schemas[first_of_type_[i]].type == type) {
        last_type_ = i;
        return first_of_type_[i];
      }
    }
    return kNone;
  }

  /// Dictionary id of `name`. Samples repeat their device layout, so the
  /// device at the same position of the schema's last record is tried
  /// first.
  std::uint32_t device_of(std::string_view name, std::uint32_t schema, std::size_t k) {
    std::vector<std::uint32_t>& hint = device_hint_[schema];
    if (k < hint.size() && out_.devices[hint[k]] == name) return hint[k];
    const auto [it, inserted] =
        device_ids_.try_emplace(name, static_cast<std::uint32_t>(out_.devices.size()));
    if (inserted) out_.devices.emplace_back(name);
    if (k < hint.size()) {
      hint[k] = it->second;
    } else if (k == hint.size()) {
      hint.push_back(it->second);
    }
    return it->second;
  }

  /// Seal the open sample: its record range, and its rows grouped by
  /// record (first-appearance order) when a type's rows were interleaved
  /// with another's.
  void close_sample() {
    if (!in_sample_) return;
    in_sample_ = false;
    ParsedFile::Header& h = out_.samples.back();
    h.record_end = static_cast<std::uint32_t>(out_.records.size());
    for (std::uint32_t r = h.record_begin; r < h.record_end; ++r) {
      record_of_[out_.records[r].schema] = kNone;
    }
    if (regroup_) {
      regroup_ = false;
      const std::uint32_t first = out_.records[h.record_begin].row_begin;
      std::vector<std::uint32_t> next(h.record_end - h.record_begin, 0);
      for (const std::uint32_t r : row_record_) ++next[r - h.record_begin];
      std::uint32_t at = first;
      for (std::uint32_t r = h.record_begin; r < h.record_end; ++r) {
        ParsedFile::Record& rec = out_.records[r];
        rec.row_begin = at;
        at += next[r - h.record_begin];
        rec.row_end = at;
        next[r - h.record_begin] = rec.row_begin;
      }
      scratch_.assign(out_.rows.begin() + first, out_.rows.end());
      for (std::size_t i = 0; i < scratch_.size(); ++i) {
        out_.rows[next[row_record_[i] - h.record_begin]++] = scratch_[i];
      }
    }
    row_record_.clear();
  }

  std::string_view source_;
  std::vector<Quarantine>* sink_;
  ParsedFile out_;
  std::size_t line_no_ = 0;
  bool saw_magic_ = false;
  bool in_sample_ = false;  // a valid header opened the current sample
  bool regroup_ = false;    // the open sample's types are interleaved
  std::vector<std::uint32_t> first_of_type_;  // schema index of each type's first schema
  std::size_t last_type_ = 0;                 // position in first_of_type_ of the last row
  std::vector<std::uint32_t> record_of_;      // per schema: its record in the open sample
  std::vector<std::uint32_t> row_record_;     // per row of the open sample: its record
  std::vector<std::vector<std::uint32_t>> device_hint_;  // per schema: last record's devices
  std::unordered_map<std::string_view, std::uint32_t> device_ids_;  // views into content
  std::vector<ParsedFile::Row> scratch_;
};

}  // namespace

ParsedFile parse_raw(std::string_view content, std::string_view source) {
  return Decoder(source, nullptr).decode(content, nullptr);
}

SalvageResult parse_raw_salvage(std::string_view content, std::string_view source) {
  SalvageResult out;
  out.file = Decoder(source, &out.quarantined).decode(content, &out.missing_magic);
  return out;
}

}  // namespace supremm::taccstats
