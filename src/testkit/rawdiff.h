// Reference raw parser and the raw-parse differential (DESIGN.md "Flat raw
// decode").
//
// taccstats::parse_raw decodes a TACC_Stats file straight into flat arrays
// with a hand-rolled tokenizer and value grammar. The reference here is the
// parser it replaced, kept deliberately plain: split each line into a
// vector of tokens, parse numbers through common::parse_i64/parse_u64 under
// try/catch, look types up by name, and build nested Samples. The contract
// the flat decoder must match, for every input:
//   - salvage: taccstats::to_samples() of the flat file equals the
//     reference samples; version, hostname and the committed schemas are
//     equal; quarantines agree on source, line, reason and detail; and
//     missing_magic agrees;
//   - strict: both accept with equal output, or both throw ParseError with
//     the same text.
//
// The differential runner feeds both parsers real raw files, windowed and
// damaged by the faultsim profiles (at full rate) and by byte edits aimed
// at the grammar: signs, 63/64-character tokens, u64 and i64 overflow,
// \r, tabs, blank and whitespace-only lines, a missing final newline,
// schema lines after the first sample, duplicate schema types,
// interleaved type rows and undeclared types.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "taccstats/reader.h"
#include "taccstats/writer.h"

namespace supremm::testkit {

/// A file as the reference parser sees it.
struct RefFile {
  std::string version;
  std::string hostname;
  std::vector<taccstats::Schema> schemas;  // the committed schemas
  std::vector<taccstats::Sample> samples;
};

struct RefSalvage {
  RefFile file;
  std::vector<taccstats::Quarantine> quarantined;
  bool missing_magic = false;
};

/// Reference strict parse: throws common::ParseError like parse_raw.
[[nodiscard]] RefFile reference_parse(std::string_view content, std::string_view source = {});

/// Reference salvage parse, like parse_raw_salvage.
[[nodiscard]] RefSalvage reference_parse_salvage(std::string_view content,
                                                 std::string_view source = {});

/// The first way the flat decoder disagrees with the reference on
/// `content`, in strict or salvage mode; nullopt when they agree.
[[nodiscard]] std::optional<std::string> diff_parsers(std::string_view content,
                                                      std::string_view source);

struct RawDiffConfig {
  std::vector<taccstats::RawFile> corpus;  // clean raw files to damage
  std::uint64_t seed = 20130527;
  std::size_t iterations = 400;
  std::string seed_dir = ".";  // where replay seed files are dumped
};

struct RawDiffReport {
  std::size_t iterations = 0;
  std::size_t strict_rejects = 0;  // cases strict parsing rejected (same text on both sides)
  std::size_t quarantined = 0;     // quarantined lines compared
  std::vector<std::string> failures;    // divergences (must be empty)
  std::vector<std::string> seed_files;  // replay files dumped for them
};

/// Build case `iteration` from RngStream(seed, "testkit.rawdiff", iteration)
/// over `corpus`: the damaged file content and a description of the edits.
[[nodiscard]] std::string make_raw_case(const std::vector<taccstats::RawFile>& corpus,
                                        std::uint64_t seed, std::size_t iteration,
                                        std::vector<std::string>* edits = nullptr);

/// Run `cfg.iterations` cases through diff_parsers, dumping a `mode
/// rawdiff` seed file for every divergence.
[[nodiscard]] RawDiffReport run_raw_diff(const RawDiffConfig& cfg);

/// Re-run one dumped `mode rawdiff` seed file against cfg.corpus. Returns
/// the divergence when it still reproduces, nullopt when the case now
/// passes. Throws common::ParseError on a malformed file.
[[nodiscard]] std::optional<std::string> replay_raw_diff_file(const RawDiffConfig& cfg,
                                                              const std::string& path);

}  // namespace supremm::testkit
