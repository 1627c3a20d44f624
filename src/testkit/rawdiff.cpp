#include "testkit/rawdiff.h"

#include <algorithm>
#include <cctype>
#include <exception>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "faultsim/faultsim.h"
#include "testkit/replay.h"

namespace supremm::testkit {

using common::split_ws;
using common::strprintf;
using taccstats::Quarantine;
using taccstats::QuarantineReason;
using taccstats::Sample;
using taccstats::Schema;

namespace {

/// The reference loop. With `sink == nullptr` any damage throws ParseError
/// (messages prefixed with `source`); otherwise each malformed line becomes
/// one Quarantine entry and parsing continues.
RefFile reference_core(std::string_view content, std::string_view source,
                       std::vector<Quarantine>* sink, bool* missing_magic) {
  RefFile out;
  std::vector<Schema> schemas;
  bool saw_magic = false;

  std::size_t pos = 0;
  std::size_t line_no = 0;
  Sample* current = nullptr;

  const auto reject = [&](QuarantineReason reason, std::string detail) {
    if (sink == nullptr) {
      std::string msg;
      if (!source.empty()) msg = std::string(source) + ": ";
      msg += detail + strprintf(" (line %zu)", line_no);
      throw common::ParseError(msg);
    }
    sink->push_back({std::string(source), line_no, reason, std::move(detail)});
  };

  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string_view::npos) eol = content.size();
    const std::string_view line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    const char c0 = line[0];
    if (c0 == '$') {
      const auto parts = split_ws(line.substr(1));
      if (parts.empty()) {
        reject(QuarantineReason::kBadMetadata, "bad metadata line");
        continue;
      }
      if (parts[0] == "tacc_stats" && parts.size() >= 2) {
        out.version = std::string(parts[1]);
        saw_magic = true;
      } else if (parts[0] == "hostname" && parts.size() >= 2) {
        out.hostname = std::string(parts[1]);
      }
      continue;
    }
    if (c0 == '!') {
      try {
        schemas.push_back(Schema::parse(line));
      } catch (const common::ParseError& e) {
        reject(QuarantineReason::kBadSchema, e.what());
      }
      continue;
    }
    const bool header_lead =
        std::isdigit(static_cast<unsigned char>(c0)) != 0 ||
        (c0 == '-' && line.size() > 1 &&
         std::isdigit(static_cast<unsigned char>(line[1])) != 0);
    if (header_lead) {
      const auto parts = split_ws(line);
      Sample header;
      bool ok = parts.size() == 3;
      if (ok) {
        try {
          header.time = common::parse_i64(parts[0]);
          header.job_id = common::parse_i64(parts[1]);
          header.mark = taccstats::parse_mark(parts[2]);
        } catch (const common::ParseError&) {
          ok = false;
        }
      }
      if (!ok) {
        reject(QuarantineReason::kBadSampleHeader, "bad sample header");
        current = nullptr;
        continue;
      }
      out.samples.push_back(std::move(header));
      current = &out.samples.back();
      if (out.schemas.empty() && !schemas.empty()) out.schemas = schemas;
      continue;
    }
    if (current == nullptr) {
      reject(QuarantineReason::kOrphanRow, "data row before sample header");
      continue;
    }
    const auto parts = split_ws(line);
    if (parts.size() < 2) {
      reject(QuarantineReason::kShortRow, "short data row");
      continue;
    }
    const std::string_view type = parts[0];
    const Schema* schema = nullptr;
    for (const auto& s : schemas) {
      if (s.type == type) {
        schema = &s;
        break;
      }
    }
    if (schema == nullptr) {
      reject(QuarantineReason::kUndeclaredType,
             "row of undeclared type '" + std::string(type) + "'");
      continue;
    }
    if (parts.size() - 2 != schema->fields.size()) {
      reject(QuarantineReason::kFieldCountMismatch,
             strprintf("row of type %s has %zu values, schema has %zu",
                       std::string(type).c_str(), parts.size() - 2, schema->fields.size()));
      continue;
    }
    taccstats::DeviceRow row;
    row.device = std::string(parts[1]);
    bool values_ok = true;
    for (std::size_t i = 2; i < parts.size(); ++i) {
      // Counter values are unsigned: a sign is damage, not a negation.
      if (parts[i][0] == '+' || parts[i][0] == '-') {
        values_ok = false;
        break;
      }
      try {
        row.values.push_back(common::parse_u64(parts[i]));
      } catch (const common::ParseError&) {
        values_ok = false;
        break;
      }
    }
    if (!values_ok) {
      reject(QuarantineReason::kBadValue,
             "row of type " + std::string(type) + " has a non-numeric value");
      continue;
    }
    taccstats::TypeRecord* rec = nullptr;
    for (auto& r : current->records) {
      if (r.type == type) {
        rec = &r;
        break;
      }
    }
    if (rec == nullptr) {
      current->records.push_back({std::string(type), {}});
      rec = &current->records.back();
    }
    rec->rows.push_back(std::move(row));
  }

  if (!saw_magic) {
    if (sink == nullptr) {
      std::string msg;
      if (!source.empty()) msg = std::string(source) + ": ";
      throw common::ParseError(msg + "missing $tacc_stats magic");
    }
    if (missing_magic != nullptr) *missing_magic = true;
  }
  if (out.schemas.empty()) out.schemas = schemas;
  return out;
}

std::string describe(const Sample& s) {
  std::size_t rows = 0;
  for (const auto& r : s.records) rows += r.rows.size();
  return strprintf("time %lld job %lld mark %s, %zu records, %zu rows",
                   static_cast<long long>(s.time), static_cast<long long>(s.job_id),
                   std::string(taccstats::mark_name(s.mark)).c_str(), s.records.size(), rows);
}

std::optional<std::string> compare_files(const RefFile& ref, const taccstats::ParsedFile& flat) {
  if (ref.version != flat.version) {
    return "version '" + ref.version + "' vs '" + flat.version + "'";
  }
  if (ref.hostname != flat.hostname) {
    return "hostname '" + ref.hostname + "' vs '" + flat.hostname + "'";
  }
  if (ref.schemas.size() != flat.committed) {
    return strprintf("%zu committed schemas vs %zu", ref.schemas.size(), flat.committed);
  }
  for (std::size_t i = 0; i < ref.schemas.size(); ++i) {
    if (ref.schemas[i].serialize() != flat.schemas[i].serialize()) {
      return strprintf("committed schema %zu: '%s' vs '%s'", i,
                       ref.schemas[i].serialize().c_str(), flat.schemas[i].serialize().c_str());
    }
  }
  const std::vector<Sample> samples = taccstats::to_samples(flat);
  if (ref.samples.size() != samples.size()) {
    return strprintf("%zu samples vs %zu", ref.samples.size(), samples.size());
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!(ref.samples[i] == samples[i])) {
      return strprintf("sample %zu: reference %s; flat %s", i, describe(ref.samples[i]).c_str(),
                       describe(samples[i]).c_str());
    }
  }
  return std::nullopt;
}

std::optional<std::string> compare_quarantines(const std::vector<Quarantine>& ref,
                                               const std::vector<Quarantine>& flat) {
  for (std::size_t i = 0; i < std::min(ref.size(), flat.size()); ++i) {
    const Quarantine& a = ref[i];
    const Quarantine& b = flat[i];
    if (a.source != b.source || a.line != b.line || a.reason != b.reason ||
        a.detail != b.detail) {
      return strprintf("quarantine %zu: reference %s line %zu %s '%s'; flat %s line %zu %s '%s'",
                       i, a.source.c_str(), a.line,
                       std::string(taccstats::quarantine_reason_name(a.reason)).c_str(),
                       a.detail.c_str(), b.source.c_str(), b.line,
                       std::string(taccstats::quarantine_reason_name(b.reason)).c_str(),
                       b.detail.c_str());
    }
  }
  if (ref.size() != flat.size()) {
    return strprintf("%zu quarantines vs %zu", ref.size(), flat.size());
  }
  return std::nullopt;
}

// --- case generation ----------------------------------------------------------

bool is_header_line(const std::string& l) {
  return !l.empty() && (std::isdigit(static_cast<unsigned char>(l[0])) != 0 ||
                        (l[0] == '-' && l.size() > 1 &&
                         std::isdigit(static_cast<unsigned char>(l[1])) != 0));
}

bool is_row_line(const std::string& l) {
  return !l.empty() && std::isalpha(static_cast<unsigned char>(l[0])) != 0;
}

struct Lines {
  std::vector<std::string> lines;
  bool final_newline = true;

  static Lines split(const std::string& text) {
    Lines out;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) {
        out.lines.push_back(text.substr(pos));
        out.final_newline = false;
        break;
      }
      out.lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return out;
  }

  [[nodiscard]] std::string join() const {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out += lines[i];
      if (i + 1 < lines.size() || final_newline) out += '\n';
    }
    return out;
  }
};

std::size_t pick(common::RngStream& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// A random line index satisfying `pred`, or lines.size() when none does.
template <typename Pred>
std::size_t pick_line(const Lines& l, common::RngStream& rng, Pred pred) {
  std::vector<std::size_t> ix;
  for (std::size_t i = 0; i < l.lines.size(); ++i) {
    if (pred(l.lines[i])) ix.push_back(i);
  }
  return ix.empty() ? l.lines.size() : ix[pick(rng, ix.size())];
}

/// Replace whitespace token `tok` of `line` (0-based) by `f(old token)`.
template <typename F>
bool edit_token(std::string& line, std::size_t tok, F f) {
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0) ++i;
    std::size_t j = i;
    while (j < line.size() && std::isspace(static_cast<unsigned char>(line[j])) == 0) ++j;
    if (j == i) break;
    if (k == tok) {
      line = line.substr(0, i) + f(line.substr(i, j - i)) + line.substr(j);
      return true;
    }
    ++k;
    i = j;
  }
  return false;
}

std::size_t token_count(const std::string& line) { return split_ws(line).size(); }

std::string zero_pad(const std::string& tok, std::size_t width) {
  return tok.size() >= width ? tok : std::string(width - tok.size(), '0') + tok;
}

enum class Edit : std::uint8_t {
  kSignValue,
  kSignHeader,
  kWideToken,
  kU64Edge,
  kI64Edge,
  kCarriageReturn,
  kTab,
  kBlankLine,
  kSpaceLine,
  kFinalNewline,
  kLateSchema,
  kDuplicateSchema,
  kInterleave,
  kUndeclaredType,
  kByteNoise,
  kHeaderShape,
  kMetadata,
  kDropHead,
  kTruncate,
};
constexpr std::size_t kEditKinds = 19;

/// Apply one grammar edit; returns what it did ("" when it found no target).
std::string apply_edit(Lines& l, common::RngStream& rng) {
  const auto kind = static_cast<Edit>(pick(rng, kEditKinds));
  const std::size_t n = l.lines.size();
  const auto first_header = [&] {
    for (std::size_t i = 0; i < l.lines.size(); ++i) {
      if (is_header_line(l.lines[i])) return i;
    }
    return l.lines.size();
  };
  switch (kind) {
    case Edit::kSignValue: {
      const std::size_t i =
          pick_line(l, rng, [](const std::string& s) { return is_row_line(s) && token_count(s) > 2; });
      if (i == n) return "";
      const std::size_t tok = 2 + pick(rng, token_count(l.lines[i]) - 2);
      const char* sign = rng.chance(0.5) ? "-" : "+";
      edit_token(l.lines[i], tok, [&](const std::string& t) { return sign + t; });
      return strprintf("sign %s on value %zu of line %zu", sign, tok, i + 1);
    }
    case Edit::kSignHeader: {
      const std::size_t i = pick_line(l, rng, is_header_line);
      if (i == n) return "";
      const std::size_t tok = pick(rng, 2);
      const char* sign = rng.chance(0.5) ? "-" : "+";
      edit_token(l.lines[i], tok, [&](const std::string& t) { return sign + t; });
      return strprintf("sign %s on header field %zu of line %zu", sign, tok, i + 1);
    }
    case Edit::kWideToken: {
      const std::size_t width = rng.chance(0.5) ? 63 : 64;
      if (rng.chance(0.7)) {
        const std::size_t i = pick_line(
            l, rng, [](const std::string& s) { return is_row_line(s) && token_count(s) > 2; });
        if (i == n) return "";
        const std::size_t tok = 2 + pick(rng, token_count(l.lines[i]) - 2);
        edit_token(l.lines[i], tok, [&](const std::string& t) { return zero_pad(t, width); });
        return strprintf("value %zu of line %zu padded to %zu chars", tok, i + 1, width);
      }
      const std::size_t i = pick_line(l, rng, is_header_line);
      if (i == n) return "";
      edit_token(l.lines[i], 0, [&](const std::string& t) { return zero_pad(t, width); });
      return strprintf("header time of line %zu padded to %zu chars", i + 1, width);
    }
    case Edit::kU64Edge: {
      static const char* const kEdges[] = {
          "18446744073709551615", "18446744073709551616", "99999999999999999999",
          "000018446744073709551615", "0", "00", "-0", "+0", "1e3", "0x10"};
      const std::size_t i = pick_line(
          l, rng, [](const std::string& s) { return is_row_line(s) && token_count(s) > 2; });
      if (i == n) return "";
      const std::size_t tok = 2 + pick(rng, token_count(l.lines[i]) - 2);
      const char* v = kEdges[pick(rng, std::size(kEdges))];
      edit_token(l.lines[i], tok, [&](const std::string&) { return std::string(v); });
      return strprintf("value %zu of line %zu set to %s", tok, i + 1, v);
    }
    case Edit::kI64Edge: {
      static const char* const kEdges[] = {
          "9223372036854775807",  "9223372036854775808", "-9223372036854775808",
          "-9223372036854775809", "+9223372036854775807", "-0", "+", "-", "007"};
      const std::size_t i = pick_line(l, rng, is_header_line);
      if (i == n) return "";
      const std::size_t tok = pick(rng, 2);
      const char* v = kEdges[pick(rng, std::size(kEdges))];
      edit_token(l.lines[i], tok, [&](const std::string&) { return std::string(v); });
      return strprintf("header field %zu of line %zu set to %s", tok, i + 1, v);
    }
    case Edit::kCarriageReturn: {
      if (n == 0) return "";
      const std::size_t i = pick(rng, n);
      l.lines[i] += '\r';
      return strprintf("\\r after line %zu", i + 1);
    }
    case Edit::kTab: {
      const std::size_t i =
          pick_line(l, rng, [](const std::string& s) { return s.find(' ') != std::string::npos; });
      if (i == n) return "";
      static const char kSpaces[] = {'\t', '\v', '\f', '\r'};
      const char c = kSpaces[pick(rng, std::size(kSpaces))];
      if (rng.chance(0.5)) {
        std::replace(l.lines[i].begin(), l.lines[i].end(), ' ', c);
      } else {
        l.lines[i][l.lines[i].find(' ')] = c;
      }
      return strprintf("whitespace 0x%02x in line %zu", c, i + 1);
    }
    case Edit::kBlankLine:
    case Edit::kSpaceLine: {
      static const char* const kBlank[] = {" ", "\t", " \t \r", "\r", "  "};
      const std::string text = kind == Edit::kBlankLine ? "" : kBlank[pick(rng, std::size(kBlank))];
      const std::size_t at = pick(rng, n + 1);
      l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(at), text);
      return strprintf("blank line (%zu chars) before line %zu", text.size(), at + 1);
    }
    case Edit::kFinalNewline:
      l.final_newline = !l.final_newline;
      return l.final_newline ? "final newline added" : "final newline removed";
    case Edit::kLateSchema: {
      const std::size_t h = first_header();
      if (h == n) return "";
      const std::size_t at = h + 1 + pick(rng, n - h);
      std::vector<std::string> add;
      const std::size_t variant = pick(rng, 3);
      if (variant == 0) {
        add = {"!gpu util;E mem;G,U=KB", "gpu 0 1 2"};
      } else if (variant == 1) {
        add = {"!cpu user;E idle;E", "cpu 0 1 2"};
      } else {
        const std::size_t s = pick_line(l, rng, [](const std::string& x) { return !x.empty() && x[0] == '!'; });
        if (s == n) return "";
        add = {l.lines[s]};
      }
      l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(at), add.begin(), add.end());
      return strprintf("late schema variant %zu before line %zu", variant, at + 1);
    }
    case Edit::kDuplicateSchema: {
      const std::size_t h = first_header();
      const std::size_t at = pick(rng, h + 1);
      static const char* const kDup[] = {"!cpu user;E idle;E", "!mem MemUsed;G,U=KB",
                                         "!ps ctxt;E processes;E load_1;G,U=c"};
      const char* line = kDup[pick(rng, std::size(kDup))];
      l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(at), line);
      return strprintf("duplicate schema '%s' before line %zu", line, at + 1);
    }
    case Edit::kInterleave: {
      // Move one row after a later row of another type in the same sample.
      const std::size_t i = pick_line(l, rng, is_row_line);
      if (i == n) return "";
      const std::string type(split_ws(l.lines[i]).front());
      std::size_t j = i + 1;
      while (j < n && is_row_line(l.lines[j]) &&
             std::string(split_ws(l.lines[j]).front()) == type) {
        ++j;
      }
      if (j >= n || !is_row_line(l.lines[j])) return "";
      const std::string moved = l.lines[i];
      l.lines.erase(l.lines.begin() + static_cast<std::ptrdiff_t>(i));
      l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(j), moved);
      return strprintf("row at line %zu moved after line %zu", i + 1, j + 1);
    }
    case Edit::kUndeclaredType: {
      static const char* const kRows[] = {"gpu 0 1 2", "zzz - 5", "cpux 0 1 2 3 4 5 6 7",
                                          "Cpu 0 1 2 3 4 5 6"};
      const char* row = kRows[pick(rng, std::size(kRows))];
      const std::size_t at = pick(rng, n + 1);
      l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(at), row);
      return strprintf("undeclared row '%s' before line %zu", row, at + 1);
    }
    case Edit::kByteNoise: {
      if (n == 0) return "";
      const std::size_t i = pick(rng, n);
      std::string& s = l.lines[i];
      static const char kBytes[] = {' ', '\t', '-', '+', '$', '!', '0', '9', 'x', ';', '\0', ','};
      const char c = kBytes[pick(rng, std::size(kBytes))];
      const std::size_t at = pick(rng, s.size() + 1);
      const std::size_t op = pick(rng, 3);
      if (op == 0 || s.empty()) {
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
      } else if (op == 1 && at < s.size()) {
        s[at] = c;
      } else if (at < s.size()) {
        s.erase(at, 1);
      }
      return strprintf("byte op %zu (0x%02x) at %zu of line %zu", op, c, at, i + 1);
    }
    case Edit::kHeaderShape: {
      const std::size_t i = pick_line(l, rng, is_header_line);
      if (i == n) return "";
      static const char* const kShapes[] = {"lead", "extra", "drop", "bogus", "case"};
      const std::size_t v = pick(rng, std::size(kShapes));
      std::string& s = l.lines[i];
      if (v == 0) {
        s = " " + s;
      } else if (v == 1) {
        s += " 7";
      } else if (v == 2) {
        s = s.substr(0, s.rfind(' '));
      } else {
        edit_token(s, 2, [&](const std::string&) {
          return std::string(v == 3 ? "bogus" : "Periodic");
        });
      }
      return strprintf("header line %zu shape %s", i + 1, kShapes[v]);
    }
    case Edit::kMetadata: {
      static const char* const kMeta[] = {"$", "$tacc_stats", "$ tacc_stats 2.1", "$hostname",
                                          "$\t", "$tacc_stats 9.9", "$hostname other"};
      const char* m = kMeta[pick(rng, std::size(kMeta))];
      const std::size_t i =
          pick_line(l, rng, [](const std::string& s) { return !s.empty() && s[0] == '$'; });
      if (i == n || rng.chance(0.3)) {
        const std::size_t at = pick(rng, n + 1);
        l.lines.insert(l.lines.begin() + static_cast<std::ptrdiff_t>(at), m);
        return strprintf("metadata '%s' before line %zu", m, at + 1);
      }
      l.lines[i] = m;
      return strprintf("metadata line %zu set to '%s'", i + 1, m);
    }
    case Edit::kDropHead: {
      const std::size_t k = std::min(n, 1 + pick(rng, 4));
      l.lines.erase(l.lines.begin(), l.lines.begin() + static_cast<std::ptrdiff_t>(k));
      return strprintf("first %zu lines dropped", k);
    }
    case Edit::kTruncate: {
      if (n == 0) return "";
      const std::size_t keep = pick(rng, n) + 1;
      l.lines.resize(keep);
      std::string& last = l.lines.back();
      last.resize(pick(rng, last.size() + 1));
      l.final_newline = false;
      return strprintf("cut inside line %zu", keep);
    }
  }
  return "";
}

/// Every faultsim profile that damages raw files.
const std::vector<std::string>& raw_profiles() {
  static const std::vector<std::string> kNames = {
      "truncation", "garbage", "shuffle", "counter_glitch", "lost_records", "clock_skew", "chaos"};
  return kNames;
}

}  // namespace

RefFile reference_parse(std::string_view content, std::string_view source) {
  return reference_core(content, source, nullptr, nullptr);
}

RefSalvage reference_parse_salvage(std::string_view content, std::string_view source) {
  RefSalvage out;
  out.file = reference_core(content, source, &out.quarantined, &out.missing_magic);
  return out;
}

std::optional<std::string> diff_parsers(std::string_view content, std::string_view source) {
  const RefSalvage ref = reference_parse_salvage(content, source);
  const taccstats::SalvageResult flat = taccstats::parse_raw_salvage(content, source);
  if (ref.missing_magic != flat.missing_magic) {
    return strprintf("salvage: missing_magic %d vs %d", ref.missing_magic, flat.missing_magic);
  }
  if (auto d = compare_quarantines(ref.quarantined, flat.quarantined)) return "salvage: " + *d;
  if (auto d = compare_files(ref.file, flat.file)) return "salvage: " + *d;

  std::optional<std::string> ref_error;
  std::optional<std::string> flat_error;
  RefFile ref_strict;
  taccstats::ParsedFile flat_strict;
  try {
    ref_strict = reference_parse(content, source);
  } catch (const common::ParseError& e) {
    ref_error = e.what();
  }
  try {
    flat_strict = taccstats::parse_raw(content, source);
  } catch (const common::ParseError& e) {
    flat_error = e.what();
  }
  if (ref_error != flat_error) {
    return "strict: reference " + (ref_error ? "threw '" + *ref_error + "'" : "accepted") +
           ", flat " + (flat_error ? "threw '" + *flat_error + "'" : "accepted");
  }
  if (!ref_error) {
    if (auto d = compare_files(ref_strict, flat_strict)) return "strict: " + *d;
  }
  return std::nullopt;
}

std::string make_raw_case(const std::vector<taccstats::RawFile>& corpus, std::uint64_t seed,
                          std::size_t iteration, std::vector<std::string>* edits) {
  if (corpus.empty()) throw common::InvalidArgument("rawdiff: empty corpus");
  common::RngStream rng(seed, "testkit.rawdiff", iteration);
  const taccstats::RawFile& base = corpus[pick(rng, corpus.size())];
  const auto note = [&](std::string what) {
    if (edits != nullptr && !what.empty()) edits->push_back(std::move(what));
  };
  note(strprintf("file %s day %lld", base.hostname.c_str(), static_cast<long long>(base.day)));

  // A window of whole samples behind the file's own header lines.
  Lines src = Lines::split(base.content);
  std::vector<std::size_t> headers;
  for (std::size_t i = 0; i < src.lines.size(); ++i) {
    if (is_header_line(src.lines[i])) headers.push_back(i);
  }
  Lines l;
  const std::size_t head = headers.empty() ? src.lines.size() : headers.front();
  l.lines.assign(src.lines.begin(), src.lines.begin() + static_cast<std::ptrdiff_t>(head));
  if (!headers.empty()) {
    const std::size_t from = headers[pick(rng, headers.size())];
    const std::size_t len = 1 + pick(rng, 1200);
    const std::size_t to = std::min(src.lines.size(), from + len);
    l.lines.insert(l.lines.end(), src.lines.begin() + static_cast<std::ptrdiff_t>(from),
                   src.lines.begin() + static_cast<std::ptrdiff_t>(to));
  }
  note(strprintf("window of %zu lines", l.lines.size()));

  // Faultsim damage, every fault of the profile at full rate.
  if (rng.chance(0.6)) {
    const std::string& name = raw_profiles()[pick(rng, raw_profiles().size())];
    faultsim::FaultPlan plan = faultsim::FaultPlan::profile(
        name, static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 40)));
    for (auto& f : plan.faults) f.rate = 1.0;
    std::vector<taccstats::RawFile> files = {{base.hostname, base.day, l.join()}};
    std::vector<accounting::AccountingRecord> acct;
    std::vector<lariat::LariatRecord> lariat;
    (void)faultsim::FaultInjector(plan).apply(files, acct, lariat);
    l = Lines::split(files.front().content);
    note("faultsim profile " + name);
  }

  const std::size_t n_edits = static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t e = 0; e < n_edits; ++e) note(apply_edit(l, rng));
  return l.join();
}

RawDiffReport run_raw_diff(const RawDiffConfig& cfg) {
  RawDiffReport rep;
  for (std::size_t i = 0; i < cfg.iterations; ++i) {
    std::vector<std::string> edits;
    std::optional<std::string> divergence;
    try {
      const std::string content = make_raw_case(cfg.corpus, cfg.seed, i, &edits);
      const std::string source = strprintf("case/%zu", i);
      divergence = diff_parsers(content, source);
      if (!divergence) {
        rep.quarantined += taccstats::parse_raw_salvage(content, source).quarantined.size();
        try {
          (void)taccstats::parse_raw(content, source);
        } catch (const common::ParseError&) {
          ++rep.strict_rejects;
        }
      }
    } catch (const std::exception& e) {
      divergence = std::string("threw: ") + e.what();
    }
    ++rep.iterations;
    if (!divergence) continue;

    const std::string path =
        cfg.seed_dir + "/testkit_seed_rawdiff_" + std::to_string(i) + ".txt";
    std::vector<std::string> comments;
    for (const auto& e : edits) comments.push_back("edit: " + e);
    comments.push_back("divergence: " + *divergence);
    comments.push_back("replay: SUPREMM_TESTKIT_REPLAY=" + path + " build/tests/test_rawdiff");
    write_seed_file(path, "rawdiff",
                    {{"seed", std::to_string(cfg.seed)}, {"iter", std::to_string(i)}}, comments);
    rep.failures.push_back(*divergence);
    rep.seed_files.push_back(path);
  }
  return rep;
}

std::optional<std::string> replay_raw_diff_file(const RawDiffConfig& cfg,
                                                const std::string& path) {
  const SeedFile sf = read_seed_file(path);
  if (sf.field("mode") != "rawdiff") {
    throw common::ParseError("seed file: expected mode rawdiff, got " + sf.field("mode"));
  }
  const auto i = static_cast<std::size_t>(sf.field_u64("iter"));
  const std::string content = make_raw_case(cfg.corpus, sf.field_u64("seed"), i);
  return diff_parsers(content, strprintf("case/%zu", i));
}

}  // namespace supremm::testkit
