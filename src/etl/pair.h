// Rate extraction from consecutive sample pairs - shared by the ingest
// pipeline and the per-job trace extractor.
//
// Pairs read flat-decoded files (taccstats/reader.h) by index: PairKeys
// resolves, once per file, which schema holds each type the extraction
// reads and which dictionary ids the Lustre mounts have; PairSample then
// resolves one sample's records once, so a pair costs no string lookup.
// Each side of a pair carries its own file's keys, because the last sample
// of day D pairs with the first sample of day D+1 and two files can number
// their schemas and devices differently.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "taccstats/reader.h"

namespace supremm::etl {

/// How counters that go backwards between the two samples are treated.
struct PairPolicy {
  /// false (strict): any backward event counter rejects the pair, as a
  /// reboot would. true (salvage): backward counters are corrected - a drop
  /// from near 2^64 is a rollover (the wrapped difference is the true
  /// delta); any other drop is a counter reset (the node rebooted and the
  /// counter restarted from zero, so the post-reset value is the delta and
  /// the pre-reset activity is lost). Corrected pairs are flagged so the
  /// ingest layer can count them.
  bool tolerate_resets = false;
};

/// Rates/gauges extracted from one consecutive sample pair of one node.
struct PairData {
  double dt = 0;
  double user_cs = 0, sys_cs = 0, idle_cs = 0, total_cs = 0;
  double flops = 0;
  bool flops_valid = false;
  double mem_gb = 0, mem_max_gb = 0;
  double scratch_wr = 0, scratch_rd = 0, work_wr = 0, share_bytes = 0;
  double ib_tx = 0, ib_rx = 0, lnet_tx = 0, lnet_rx = 0;
  double swap_bytes = 0;
  double load = 0;
  bool reset = false;     // >=1 counter corrected as a reset (salvage only)
  bool rollover = false;  // >=1 counter corrected as a rollover (salvage only)
};

/// The arch perf type ("amd64_pmc"/"intel_wtm") among `file`'s committed
/// schemas (the last one if several), or "" when it declares none.
[[nodiscard]] std::string committed_perf_type(const taccstats::ParsedFile& file);

/// How many record types extract_pair reads (cpu, perf, mem, llite, ib,
/// lnet, vm, ps).
inline constexpr std::size_t kPairSlots = 8;

/// One file's lookups for extract_pair, resolved once.
struct PairKeys {
  static constexpr std::uint32_t kNoDevice = UINT32_MAX;

  /// `perf_type` is the arch perf schema name ("amd64_pmc"/"intel_wtm";
  /// empty = no perf).
  PairKeys(const taccstats::ParsedFile& file, std::string_view perf_type);

  const taccstats::ParsedFile* file;
  std::vector<std::uint8_t> slot;       // per schema: the slot it fills, kPairSlots if unread
  std::uint32_t scratch, work, share;   // Lustre mount device ids, or kNoDevice
};

/// One sample's records of the types extract_pair reads (nullptr when the
/// sample has none of a type).
struct PairSample {
  PairSample() = default;
  /// Sample `ix` of `*keys.file`, at its header's time.
  PairSample(const PairKeys& keys, std::size_t ix);

  const PairKeys* keys = nullptr;
  common::TimePoint time = 0;
  std::array<const taccstats::ParsedFile::Record*, kPairSlots> rec{};
};

/// Extract deltas/gauges from samples a -> b of the same node. Returns false
/// when b does not follow a or (under the default strict policy) the CPU
/// counters went backwards (reboot). Throws std::out_of_range when a record
/// the extraction reads has fewer fields than the standard schema.
[[nodiscard]] bool extract_pair(const PairSample& a, const PairSample& b, PairData& out,
                                const PairPolicy& policy = {});

}  // namespace supremm::etl
