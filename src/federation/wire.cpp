#include "federation/wire.h"

#include <bit>
#include <cstring>

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

void put_key_value(Writer& w, const warehouse::partial::KeyValue& v) {
  w.u8(static_cast<std::uint8_t>(v.type));
  switch (v.type) {
    case warehouse::ColType::kString:
      w.str(v.str);
      break;
    case warehouse::ColType::kInt64:
      w.i64(v.i64);
      break;
    case warehouse::ColType::kDouble:
      w.u64(v.bits);
      break;
  }
}

warehouse::partial::KeyValue get_key_value(Reader& r) {
  warehouse::partial::KeyValue v;
  v.type = col_type(r.u8());
  switch (v.type) {
    case warehouse::ColType::kString:
      v.str = r.str();
      break;
    case warehouse::ColType::kInt64:
      v.i64 = r.i64();
      break;
    case warehouse::ColType::kDouble:
      v.bits = r.u64();
      break;
  }
  return v;
}

void put_agg_state(Writer& w, const warehouse::AggState& s) {
  w.f64(s.sum);
  w.f64(s.wsum);
  w.f64(s.wvsum);
  w.f64(s.mn);
  w.f64(s.mx);
  w.i64(s.n);
}

warehouse::AggState get_agg_state(Reader& r) {
  warehouse::AggState s;
  s.sum = r.f64();
  s.wsum = r.f64();
  s.wvsum = r.f64();
  s.mn = r.f64();
  s.mx = r.f64();
  s.n = r.i64();
  return s;
}

constexpr std::size_t kAggStateBytes = 6 * 8;
constexpr std::size_t kMinKeyValueBytes = 1 + 4;  // type + shortest payload (empty string)
constexpr std::size_t kMinTupleBytes = 4 + 4 + 8 + 4;  // group/extra counts + rank + ndays

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
  Writer w;
  w.u8(m.rollup_served ? 1 : 0);
  const auto& p = m.partial;
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
  w.u32(static_cast<std::uint32_t>(p.tuples.size()));
  for (const auto& t : p.tuples) {
    w.u32(static_cast<std::uint32_t>(t.group.size()));
    for (const auto& v : t.group) put_key_value(w, v);
    w.u32(static_cast<std::uint32_t>(t.extra.size()));
    for (const auto& v : t.extra) put_key_value(w, v);
    w.i64(t.rank);
    w.u32(static_cast<std::uint32_t>(t.days.size()));
    for (const std::int64_t d : t.days) w.i64(d);
    for (const auto& s : t.states) put_agg_state(w, s);
  }
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
  const bool folded = p.level != warehouse::partial::Level::kDays;
  p.stats.chunks_total = r.u64();
  p.stats.chunks_pruned = r.u64();
  p.stats.rows_scanned = r.u64();
  p.stats.rows_matched = r.u64();
  const std::uint32_t nkeys = r.u32();
  r.check_count(nkeys, 4 + 1);
  p.key_schema.reserve(nkeys);
  for (std::uint32_t i = 0; i < nkeys; ++i) {
    std::string name = r.str();
    p.key_schema.emplace_back(std::move(name), col_type(r.u8()));
  }
  p.naggs = r.u32();
  // A tuple carries naggs states per day; an absurd naggs would let a small
  // forged message demand huge allocations below.
  if (p.naggs > 64) {
    throw common::ParseError("wire: implausible aggregate count " + std::to_string(p.naggs));
  }
  const std::uint32_t ntuples = r.u32();
  r.check_count(ntuples, kMinTupleBytes);
  p.tuples.reserve(ntuples);
  for (std::uint32_t i = 0; i < ntuples; ++i) {
    warehouse::partial::TuplePartial t;
    const std::uint32_t ngroup = r.u32();
    if (ngroup != nkeys) {
      throw common::ParseError("wire: tuple group width " + std::to_string(ngroup) +
                               " != key schema width " + std::to_string(nkeys));
    }
    r.check_count(ngroup, kMinKeyValueBytes);
    t.group.reserve(ngroup);
    for (std::uint32_t k = 0; k < ngroup; ++k) t.group.push_back(get_key_value(r));
    const std::uint32_t nextra = r.u32();
    if (p.level == warehouse::partial::Level::kGroups && nextra != 0) {
      throw common::ParseError("wire: group total carries " + std::to_string(nextra) +
                               " extra keys");
    }
    r.check_count(nextra, kMinKeyValueBytes);
    t.extra.reserve(nextra);
    for (std::uint32_t k = 0; k < nextra; ++k) t.extra.push_back(get_key_value(r));
    t.rank = r.i64();
    const std::uint32_t ndays = r.u32();
    if (ndays == 0 || (folded && ndays != 1)) {
      throw common::ParseError("wire: " + std::string(warehouse::partial::to_string(p.level)) +
                               "-level tuple carries " + std::to_string(ndays) + " day entries");
    }
    r.check_count(ndays, 8 + p.naggs * kAggStateBytes);
    t.days.reserve(ndays);
    for (std::uint32_t d = 0; d < ndays; ++d) t.days.push_back(r.i64());
    for (std::uint32_t d = 1; d < ndays; ++d) {
      if (t.days[d] <= t.days[d - 1]) {
        throw common::ParseError("wire: tuple day list not strictly ascending");
      }
    }
    t.states.reserve(std::size_t{ndays} * p.naggs);
    for (std::size_t s = 0; s < std::size_t{ndays} * p.naggs; ++s) {
      t.states.push_back(get_agg_state(r));
    }
    p.tuples.push_back(std::move(t));
  }
  r.expect_done();
  return m;
}

// --- framing ---------------------------------------------------------------

std::string frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw common::InvalidArgument("wire: payload exceeds frame cap");
  }
  Writer w;
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  std::string out = w.take();
  out.append(payload);
  const std::uint32_t crc = common::crc32(out);
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
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
