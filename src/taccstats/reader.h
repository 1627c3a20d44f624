// Parser for the raw text format produced by RawWriter (the ingest side of
// the tool chain; the ETL pipeline consumes ParsedFile).
//
// A file decodes straight into flat arrays (DESIGN.md "Flat raw decode"):
// one header per sample, one record per (sample, type) naming its schema by
// index, one row per device line naming its device by dictionary id, and
// one u64 array holding every counter value. No string is built per row and
// no type is looked up by name after the parse, so the ETL resolves type
// indices and device ids once per file.
//
// Two entry points share one decode loop:
//   - parse_raw: strict. The first malformed line aborts the whole file with
//     ParseError (the self-describing format contract).
//   - parse_raw_salvage: degraded-data mode. Every well-formed sample is
//     recovered; each malformed line is skipped and reported as a structured
//     Quarantine diagnostic so the ingest layer can account for exactly what
//     was lost (DESIGN.md "Degraded data semantics").
//
// Value grammar: a counter value is 1 to 63 decimal digits that fit a u64;
// a sign or any other character makes the row kBadValue. Sample-header
// times and job ids are signed (a host whose clock runs behind the epoch
// stamps negative times): an optional '+' or '-', then digits, within i64.
//
// The nested Sample form remains the producer's (collector -> RawWriter);
// code that edits parsed samples and writes them back, and tests, reach it
// through to_samples().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "taccstats/record.h"
#include "taccstats/schema.h"

namespace supremm::taccstats {

/// One raw file, decoded flat. Offsets are 32-bit: a file is one node-day,
/// and parse_raw rejects content of 4 GiB or more.
struct ParsedFile {
  /// One sample header; its records are records[record_begin, record_end).
  struct Header {
    common::TimePoint time = 0;
    std::int64_t job_id = 0;
    SampleMark mark = SampleMark::kPeriodic;
    std::uint32_t record_begin = 0;
    std::uint32_t record_end = 0;
  };
  /// All rows of one type in one sample, in first-appearance order within
  /// the sample; its rows are rows[row_begin, row_end).
  struct Record {
    std::uint32_t schema = 0;  // index into schemas (the first of its type)
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = 0;
  };
  /// One device line: schemas[record.schema].fields.size() values from
  /// values[value_offset].
  struct Row {
    std::uint32_t device = 0;  // index into devices
    std::uint32_t value_offset = 0;
  };

  std::string version;
  std::string hostname;
  /// Every well-formed schema line, in file order. Rows validate against
  /// all of them; a type's first schema wins.
  std::vector<Schema> schemas;
  /// schemas[0, committed) were declared before the first sample header
  /// that saw any (all of them when no sample followed): the file's
  /// registry, from which ingest picks the perf type.
  std::size_t committed = 0;
  std::vector<std::string> devices;  // device dictionary
  std::vector<Header> samples;
  std::vector<Record> records;
  std::vector<Row> rows;
  std::vector<std::uint64_t> values;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The committed schemas as a registry.
  [[nodiscard]] SchemaRegistry registry() const;
  /// Index of the first schema of `type`, or npos.
  [[nodiscard]] std::size_t schema_index(std::string_view type) const noexcept;
  /// Dictionary id of device `name`, or npos.
  [[nodiscard]] std::size_t device_id(std::string_view name) const noexcept;
  /// The values of `row`, a row of `rec`.
  [[nodiscard]] std::span<const std::uint64_t> row_values(const Record& rec,
                                                          const Row& row) const noexcept {
    return {values.data() + row.value_offset, schemas[rec.schema].fields.size()};
  }
};

/// Why a line was quarantined by salvage parsing.
enum class QuarantineReason : std::uint8_t {
  kBadMetadata,         // malformed $-line
  kBadSchema,           // malformed !-line
  kBadSampleHeader,     // digit-leading line that is not "<time> <jobid> <mark>"
  kUndeclaredType,      // data row of a type with no schema (garbage/corruption)
  kShortRow,            // data row with no device/values (truncation tail)
  kFieldCountMismatch,  // row value count disagrees with its schema
  kBadValue,            // counter value that is not 1-63 digits fitting a u64
  kOrphanRow,           // data row with no preceding (valid) sample header
};

[[nodiscard]] std::string_view quarantine_reason_name(QuarantineReason r) noexcept;

/// One malformed line skipped by salvage parsing: where it came from (host or
/// file identity), where it was, and why it was rejected.
struct Quarantine {
  std::string source;
  std::size_t line = 0;
  QuarantineReason reason = QuarantineReason::kBadValue;
  std::string detail;
};

struct SalvageResult {
  ParsedFile file;
  std::vector<Quarantine> quarantined;
  bool missing_magic = false;  // no $tacc_stats line survived
};

/// Parse a whole raw file. Throws ParseError on malformed input; `source`
/// (hostname / file identity) is prefixed to error messages so multi-host
/// ingest failures are attributable. Rows whose value count does not match
/// their schema are rejected (self-describing format contract).
[[nodiscard]] ParsedFile parse_raw(std::string_view content, std::string_view source = {});

/// Salvage parse: never throws on malformed content. Recovers every
/// well-formed sample and quarantines each malformed line (one Quarantine
/// per damaged line). A damaged sample header orphans the rows that follow
/// it (each quarantined individually) rather than attaching them to the
/// previous sample.
[[nodiscard]] SalvageResult parse_raw_salvage(std::string_view content,
                                              std::string_view source = {});

/// The nested form of a parsed file's samples, records in first-appearance
/// order - what RawWriter would need to write the samples back.
[[nodiscard]] std::vector<Sample> to_samples(const ParsedFile& file);

/// Parse a mark name back to the enum.
[[nodiscard]] SampleMark parse_mark(std::string_view name);

}  // namespace supremm::taccstats
