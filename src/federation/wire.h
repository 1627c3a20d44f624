// Versioned binary shard protocol (DESIGN.md §17), slurm pack.h style:
// little scalar put/get primitives composed into length-prefixed, CRC-framed
// messages with an explicit protocol version in every frame header.
//
// Frame layout (all integers little-endian, fixed width):
//
//   u32 magic      "SUPF" (0x53555046)
//   u16 version    kProtocolVersion; a peer speaking another version is
//                  rejected before any payload is interpreted
//   u16 type       MsgType
//   u32 len        payload byte count (capped at kMaxPayload)
//   u8  payload[len]
//   u32 crc        CRC-32 over header + payload
//
// One shard conversation is two concatenated frames each way:
//
//   client → shard   Hello{client}, Query{spec, deadline_ms, rank_column, level}
//   shard  → client  HelloAck{shard}, Partial{rollup_served, level, ...}
//                    — or Error{message}
//
// Protocol v2 added the fold levels: the coordinator requests how far the
// shard may fold its partial (day cells, tuple totals or group totals), and
// the partial states the level it was folded to. Protocol v3 ships the
// columnar partial (warehouse/partial.h) as whole arrays:
//
//   u8 rollup_served, u8 level, u64 x4 stats
//   u32 nkeys, {str name, u8 type} x nkeys, u32 naggs
//   u32 ntuples, u32 nextra
//   column x (nkeys + nextra): u8 type, then
//       string:        u32 ndict, str x ndict, u32 code x ntuples
//       int64/double:  u64 word x ntuples
//   i64 rank x ntuples, u32 day_end x ntuples
//   u32 ndays, i64 day x ndays, AggState x (ndays * naggs)
//
// where an AggState is its six 8-byte fields (sum, wsum, wvsum, mn, mx, n).
// Every count is checked against the bytes left before anything is
// allocated, and a decoded partial must pass partial::shape_error.
//
// Every decode path is bounds-checked and enum-validated: truncated input,
// forged CRCs, implausible counts and out-of-range enums all surface as
// common::ParseError ("wire: ..."), never as a crash or an over-read. Floats
// travel as raw IEEE bit patterns (u64), so NaN payloads and -0.0 survive
// the trip exactly — a requirement of the bit-identical merge contract.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/request.h"
#include "warehouse/partial.h"

namespace supremm::federation::wire {

inline constexpr std::uint32_t kMagic = 0x53555046u;  // "SUPF"
inline constexpr std::uint16_t kProtocolVersion = 3;
inline constexpr std::uint32_t kMaxPayload = 1u << 28;
inline constexpr std::size_t kFrameHeaderBytes = 12;  // magic+version+type+len

enum class MsgType : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kQuery = 3,
  kPartial = 4,
  kError = 5,
};

/// pack.h-style append-only scalar packer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v);  // exact bit pattern
  void str(std::string_view s);
  /// The elements' bytes, back to back (no count: the message layout
  /// carries it).
  template <typename T>
  void array(std::span<const T> v) {
    raw(v.data(), v.size_bytes());
  }
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const std::string& data() const noexcept { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, std::size_t n);
  std::string buf_;
};

/// Bounds-checked scalar unpacker; every getter throws common::ParseError
/// ("wire: truncated message") rather than reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  /// `n` elements written by Writer::array; checks the bytes are there
  /// before it allocates.
  template <typename T>
  void array(std::vector<T>& out, std::size_t n) {
    need_elements(n, sizeof(T));
    out.resize(n);
    if (n > 0) std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// Reject a collection count that could not possibly fit in the remaining
  /// bytes (each element needs >= min_bytes) before anything allocates.
  void check_count(std::uint64_t count, std::size_t min_bytes) const;

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Trailing garbage after a complete message is a framing error.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  void need_elements(std::size_t n, std::size_t size) const;
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- messages --------------------------------------------------------------

struct Hello {
  std::string client;
};

struct HelloAck {
  std::string shard;
};

struct QueryMsg {
  service::QuerySpec spec;
  std::uint32_t deadline_ms = 0;  // 0 = no deadline
  std::string rank_column;        // "" = first-seen tuple order (single shard)
  /// How far the shard may fold its partial: the catalog's proof of what
  /// this shard owns (DESIGN.md §17).
  warehouse::partial::Level level = warehouse::partial::Level::kDays;
};

struct PartialMsg {
  bool rollup_served = false;  // served from the shard's RollupSet
  /// Carries the applied fold level in `partial.level`.
  warehouse::partial::Partial partial;
};

struct ErrorMsg {
  std::string message;
  /// The shard hit its deadline (maps to degraded kPartial accounting at the
  /// coordinator, distinct from a hard error).
  bool timeout = false;
};

[[nodiscard]] std::string pack_hello(const Hello& m);
[[nodiscard]] std::string pack_hello_ack(const HelloAck& m);
[[nodiscard]] std::string pack_query(const QueryMsg& m);
[[nodiscard]] std::string pack_partial(const PartialMsg& m);
[[nodiscard]] std::string pack_error(const ErrorMsg& m);

[[nodiscard]] Hello unpack_hello(std::string_view payload);
[[nodiscard]] HelloAck unpack_hello_ack(std::string_view payload);
[[nodiscard]] QueryMsg unpack_query(std::string_view payload);
[[nodiscard]] PartialMsg unpack_partial(std::string_view payload);
[[nodiscard]] ErrorMsg unpack_error(std::string_view payload);

// --- framing ---------------------------------------------------------------

/// Wrap a packed payload in the versioned CRC frame.
[[nodiscard]] std::string frame(MsgType type, std::string_view payload);
/// frame(), appended to `out` (one buffer for a whole conversation).
void append_frame(std::string& out, MsgType type, std::string_view payload);

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Decode the frame starting at `offset` in `buf`, advancing `offset` past
/// it. Throws common::ParseError on bad magic, protocol version mismatch
/// ("wire: protocol version mismatch ..."), unknown type, oversized length,
/// truncation or CRC mismatch.
[[nodiscard]] Frame read_frame(std::string_view buf, std::size_t& offset);

}  // namespace supremm::federation::wire
