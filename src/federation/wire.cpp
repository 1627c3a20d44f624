#include "federation/wire.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "common/checksum.h"
#include "common/error.h"

namespace supremm::federation::wire {

void Writer::raw(const void* p, std::size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw common::ParseError("wire: truncated message (need " + std::to_string(n) + " bytes, " +
                             std::to_string(remaining()) + " left)");
  }
}

void Reader::need_elements(std::size_t n, std::size_t size) const {
  if (n > remaining() / size) {
    throw common::ParseError("wire: truncated message (need " + std::to_string(n) + " x " +
                             std::to_string(size) + " bytes, " + std::to_string(remaining()) +
                             " left)");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

void Reader::check_count(std::uint64_t count, std::size_t min_bytes) const {
  if (count > remaining() / (min_bytes == 0 ? 1 : min_bytes)) {
    throw common::ParseError("wire: implausible element count " + std::to_string(count));
  }
}

void Reader::expect_done() const {
  if (remaining() != 0) {
    throw common::ParseError("wire: " + std::to_string(remaining()) +
                             " trailing bytes after message");
  }
}

namespace {

// --- enum guards: every enum crossing the wire re-validates on decode ------

service::TermOp term_op(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(service::TermOp::kBetween)) {
    throw common::ParseError("wire: unknown predicate op " + std::to_string(v));
  }
  return static_cast<service::TermOp>(v);
}

warehouse::AggKind agg_kind(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(warehouse::AggKind::kCount)) {
    throw common::ParseError("wire: unknown aggregate kind " + std::to_string(v));
  }
  return static_cast<warehouse::AggKind>(v);
}

warehouse::partial::Level fold_level(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(warehouse::partial::Level::kGroups)) {
    throw common::ParseError("wire: unknown fold level " + std::to_string(v));
  }
  return static_cast<warehouse::partial::Level>(v);
}

warehouse::ColType col_type(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(warehouse::ColType::kString)) {
    throw common::ParseError("wire: unknown column type " + std::to_string(v));
  }
  return static_cast<warehouse::ColType>(v);
}

constexpr std::size_t kAggStateBytes = sizeof(warehouse::AggState);
constexpr std::size_t kMaxKeyColumns = 64;
static_assert(kAggStateBytes == 6 * 8 && std::is_trivially_copyable_v<warehouse::AggState>,
              "AggState travels as its six 8-byte fields, in declaration order");
static_assert(std::endian::native == std::endian::little,
              "the wire copies arrays as little-endian bytes");

void put_column(Writer& w, const warehouse::partial::KeyColumn& c) {
  w.u8(static_cast<std::uint8_t>(c.type));
  if (c.type == warehouse::ColType::kString) {
    w.u32(static_cast<std::uint32_t>(c.dict.size()));
    for (const std::string& s : c.dict) w.str(s);
    w.array(std::span<const std::uint32_t>(c.codes));
  } else {
    w.array(std::span<const std::uint64_t>(c.words));
  }
}

/// Every count is checked against the bytes left before anything
/// allocates: a dictionary entry takes at least its 4-byte length, and the
/// code or word array must be there in full.
warehouse::partial::KeyColumn get_column(Reader& r, std::size_t tuples) {
  warehouse::partial::KeyColumn c;
  c.type = col_type(r.u8());
  if (c.type == warehouse::ColType::kString) {
    const std::uint32_t ndict = r.u32();
    r.check_count(ndict, 4);
    c.dict.reserve(ndict);
    for (std::uint32_t i = 0; i < ndict; ++i) c.dict.push_back(r.str());
    r.array(c.codes, tuples);
  } else {
    r.array(c.words, tuples);
  }
  return c;
}

}  // namespace

// --- hello / error ---------------------------------------------------------

std::string pack_hello(const Hello& m) {
  Writer w;
  w.str(m.client);
  return w.take();
}

Hello unpack_hello(std::string_view payload) {
  Reader r(payload);
  Hello m;
  m.client = r.str();
  r.expect_done();
  return m;
}

std::string pack_hello_ack(const HelloAck& m) {
  Writer w;
  w.str(m.shard);
  return w.take();
}

HelloAck unpack_hello_ack(std::string_view payload) {
  Reader r(payload);
  HelloAck m;
  m.shard = r.str();
  r.expect_done();
  return m;
}

std::string pack_error(const ErrorMsg& m) {
  Writer w;
  w.u8(m.timeout ? 1 : 0);
  w.str(m.message);
  return w.take();
}

ErrorMsg unpack_error(std::string_view payload) {
  Reader r(payload);
  ErrorMsg m;
  const std::uint8_t timeout = r.u8();
  if (timeout > 1) {
    throw common::ParseError("wire: bad timeout flag " + std::to_string(timeout));
  }
  m.timeout = timeout == 1;
  m.message = r.str();
  r.expect_done();
  return m;
}

// --- query -----------------------------------------------------------------

std::string pack_query(const QueryMsg& m) {
  Writer w;
  w.str(m.spec.table);
  w.u32(static_cast<std::uint32_t>(m.spec.where.size()));
  for (const auto& t : m.spec.where) {
    w.u8(static_cast<std::uint8_t>(t.op));
    w.str(t.column);
    w.str(t.value);
    w.f64(t.lo);
    w.f64(t.hi);
  }
  w.u32(static_cast<std::uint32_t>(m.spec.group_by.size()));
  for (const auto& g : m.spec.group_by) w.str(g);
  w.u32(static_cast<std::uint32_t>(m.spec.aggs.size()));
  for (const auto& a : m.spec.aggs) {
    w.u8(static_cast<std::uint8_t>(a.kind));
    w.str(a.column);
    w.str(a.weight);
    w.str(a.as);
  }
  w.u32(static_cast<std::uint32_t>(m.spec.threads));
  w.u32(m.deadline_ms);
  w.str(m.rank_column);
  w.u8(static_cast<std::uint8_t>(m.level));
  return w.take();
}

QueryMsg unpack_query(std::string_view payload) {
  Reader r(payload);
  QueryMsg m;
  m.spec.table = r.str();
  const std::uint32_t nwhere = r.u32();
  r.check_count(nwhere, 1 + 4 + 4 + 8 + 8);
  m.spec.where.reserve(nwhere);
  for (std::uint32_t i = 0; i < nwhere; ++i) {
    service::Term t;
    t.op = term_op(r.u8());
    t.column = r.str();
    t.value = r.str();
    t.lo = r.f64();
    t.hi = r.f64();
    m.spec.where.push_back(std::move(t));
  }
  const std::uint32_t ngroup = r.u32();
  r.check_count(ngroup, 4);
  m.spec.group_by.reserve(ngroup);
  for (std::uint32_t i = 0; i < ngroup; ++i) m.spec.group_by.push_back(r.str());
  const std::uint32_t naggs = r.u32();
  r.check_count(naggs, 1 + 4 + 4 + 4);
  m.spec.aggs.reserve(naggs);
  for (std::uint32_t i = 0; i < naggs; ++i) {
    warehouse::AggSpec a;
    a.kind = agg_kind(r.u8());
    a.column = r.str();
    a.weight = r.str();
    a.as = r.str();
    m.spec.aggs.push_back(std::move(a));
  }
  m.spec.threads = r.u32();
  m.deadline_ms = r.u32();
  m.rank_column = r.str();
  m.level = fold_level(r.u8());
  r.expect_done();
  return m;
}

// --- partial ---------------------------------------------------------------

std::string pack_partial(const PartialMsg& m) {
  const auto& p = m.partial;
  const std::size_t ntuples = p.tuples();
  // Columns, ranks and offsets share the tuple count, states the day count;
  // a partial whose arrays disagree on them has no v3 encoding.
  bool sized = p.day_end.size() == ntuples && p.states.size() == p.days.size() * p.naggs;
  for (const auto* cols : {&p.group, &p.extra}) {
    for (const auto& c : *cols) sized = sized && c.size() == ntuples;
  }
  if (!sized) throw common::InvalidArgument("wire: partial arrays disagree on their sizes");

  Writer w;
  w.reserve(64 + ntuples * (8 + 4 + 8 * (p.group.size() + p.extra.size())) +
            p.days.size() * 8 + p.states.size() * kAggStateBytes);
  w.u8(m.rollup_served ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(p.level));
  w.u64(p.stats.chunks_total);
  w.u64(p.stats.chunks_pruned);
  w.u64(p.stats.rows_scanned);
  w.u64(p.stats.rows_matched);
  w.u32(static_cast<std::uint32_t>(p.key_schema.size()));
  for (const auto& [name, type] : p.key_schema) {
    w.str(name);
    w.u8(static_cast<std::uint8_t>(type));
  }
  w.u32(static_cast<std::uint32_t>(p.naggs));
  w.u32(static_cast<std::uint32_t>(ntuples));
  w.u32(static_cast<std::uint32_t>(p.extra.size()));
  for (const auto& c : p.group) put_column(w, c);
  for (const auto& c : p.extra) put_column(w, c);
  w.array(std::span<const std::int64_t>(p.rank));
  w.array(std::span<const std::uint32_t>(p.day_end));
  w.u32(static_cast<std::uint32_t>(p.days.size()));
  w.array(std::span<const std::int64_t>(p.days));
  w.array(std::span<const warehouse::AggState>(p.states));
  return w.take();
}

PartialMsg unpack_partial(std::string_view payload) {
  Reader r(payload);
  PartialMsg m;
  const std::uint8_t rollup = r.u8();
  if (rollup > 1) {
    throw common::ParseError("wire: bad rollup_served flag " + std::to_string(rollup));
  }
  m.rollup_served = rollup == 1;
  auto& p = m.partial;
  p.level = fold_level(r.u8());
  p.stats.chunks_total = r.u64();
  p.stats.chunks_pruned = r.u64();
  p.stats.rows_scanned = r.u64();
  p.stats.rows_matched = r.u64();
  // A key column costs far more in memory than its few bytes on the wire
  // when there are no tuples, so key column counts are capped outright.
  const std::uint32_t nkeys = r.u32();
  if (nkeys > kMaxKeyColumns) {
    throw common::ParseError("wire: implausible key count " + std::to_string(nkeys));
  }
  r.check_count(nkeys, 4 + 1);
  p.key_schema.reserve(nkeys);
  for (std::uint32_t i = 0; i < nkeys; ++i) {
    std::string name = r.str();
    p.key_schema.emplace_back(std::move(name), col_type(r.u8()));
  }
  p.naggs = r.u32();
  // Each day entry carries naggs states; an absurd naggs would let a small
  // forged message demand huge allocations below.
  if (p.naggs > 64) {
    throw common::ParseError("wire: implausible aggregate count " + std::to_string(p.naggs));
  }
  // A tuple takes at least its rank, its day-end offset, one day entry with
  // its states and a 4-byte code per group column.
  const std::uint32_t ntuples = r.u32();
  r.check_count(ntuples, 8 + 4 + 8 + p.naggs * kAggStateBytes + 4 * std::size_t{nkeys});
  const std::uint32_t nextra = r.u32();
  if (nextra > kMaxKeyColumns - nkeys) {
    throw common::ParseError("wire: implausible extra key count " + std::to_string(nextra));
  }
  p.group.reserve(nkeys);
  for (std::uint32_t k = 0; k < nkeys; ++k) p.group.push_back(get_column(r, ntuples));
  p.extra.reserve(nextra);
  for (std::uint32_t k = 0; k < nextra; ++k) p.extra.push_back(get_column(r, ntuples));
  r.array(p.rank, ntuples);
  r.array(p.day_end, ntuples);
  const std::uint32_t ndays = r.u32();
  r.check_count(ndays, 8 + p.naggs * kAggStateBytes);
  r.array(p.days, ndays);
  r.array(p.states, std::size_t{ndays} * p.naggs);
  r.expect_done();
  if (auto e = warehouse::partial::shape_error(p)) throw common::ParseError("wire: " + *e);
  return m;
}

// --- framing ---------------------------------------------------------------

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw common::InvalidArgument("wire: payload exceeds frame cap");
  }
  const std::size_t start = out.size();
  out.reserve(start + kFrameHeaderBytes + payload.size() + 4);
  Writer w;
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  out.append(w.data());
  out.append(payload);
  const std::uint32_t crc = common::crc32(std::string_view(out).substr(start));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

std::string frame(MsgType type, std::string_view payload) {
  std::string out;
  append_frame(out, type, payload);
  return out;
}

Frame read_frame(std::string_view buf, std::size_t& offset) {
  if (offset > buf.size()) throw common::ParseError("wire: frame offset past buffer");
  Reader r(buf.substr(offset));
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw common::ParseError("wire: bad frame magic");
  }
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion) {
    throw common::ParseError("wire: protocol version mismatch (peer " + std::to_string(version) +
                             ", local " + std::to_string(kProtocolVersion) + ")");
  }
  const std::uint16_t type = r.u16();
  if (type < static_cast<std::uint16_t>(MsgType::kHello) ||
      type > static_cast<std::uint16_t>(MsgType::kError)) {
    throw common::ParseError("wire: unknown message type " + std::to_string(type));
  }
  const std::uint32_t len = r.u32();
  if (len > kMaxPayload) {
    throw common::ParseError("wire: frame payload length " + std::to_string(len) +
                             " exceeds cap");
  }
  if (r.remaining() < std::size_t{len} + 4) {
    throw common::ParseError("wire: truncated frame");
  }
  const std::string_view body = buf.substr(offset, kFrameHeaderBytes + len);
  const std::string_view crc_bytes = buf.substr(offset + kFrameHeaderBytes + len, 4);
  std::uint32_t crc;
  std::memcpy(&crc, crc_bytes.data(), sizeof(crc));
  if (common::crc32(body) != crc) {
    throw common::ParseError("wire: frame checksum mismatch");
  }
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload = std::string(buf.substr(offset + kFrameHeaderBytes, len));
  offset += kFrameHeaderBytes + len + 4;
  return f;
}

}  // namespace supremm::federation::wire
