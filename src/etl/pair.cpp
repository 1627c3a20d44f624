#include "etl/pair.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "procsim/perf.h"

namespace supremm::etl {

using taccstats::ParsedFile;

namespace {

/// The record types extract_pair reads: PairSample::rec's slots.
enum class PairSlot : std::uint8_t { kCpu, kPerf, kMem, kLlite, kIb, kLnet, kVm, kPs };
static_assert(static_cast<std::size_t>(PairSlot::kPs) + 1 == kPairSlots);

}  // namespace

std::string committed_perf_type(const ParsedFile& file) {
  std::string out;
  for (std::size_t i = 0; i < file.committed; ++i) {
    const std::string& type = file.schemas[i].type;
    if (type == "amd64_pmc" || type == "intel_wtm") out = type;
  }
  return out;
}

PairKeys::PairKeys(const ParsedFile& f, std::string_view perf_type)
    : file(&f), slot(f.schemas.size(), static_cast<std::uint8_t>(kPairSlots)) {
  const auto resolve = [&](std::string_view type, PairSlot s) {
    if (const std::size_t ix = f.schema_index(type); ix != ParsedFile::npos) {
      slot[ix] = static_cast<std::uint8_t>(s);
    }
  };
  resolve("cpu", PairSlot::kCpu);
  if (!perf_type.empty()) resolve(perf_type, PairSlot::kPerf);
  resolve("mem", PairSlot::kMem);
  resolve("llite", PairSlot::kLlite);
  resolve("ib", PairSlot::kIb);
  resolve("lnet", PairSlot::kLnet);
  resolve("vm", PairSlot::kVm);
  resolve("ps", PairSlot::kPs);
  const auto device = [&](std::string_view name) {
    const std::size_t id = f.device_id(name);
    return id == ParsedFile::npos ? kNoDevice : static_cast<std::uint32_t>(id);
  };
  scratch = device("scratch");
  work = device("work");
  share = device("share");
}

PairSample::PairSample(const PairKeys& k, std::size_t ix) : keys(&k) {
  const ParsedFile& f = *k.file;
  const ParsedFile::Header& h = f.samples[ix];
  time = h.time;
  for (std::uint32_t r = h.record_begin; r < h.record_end; ++r) {
    const ParsedFile::Record& record = f.records[r];
    if (const std::uint8_t s = k.slot[record.schema]; s < kPairSlots) rec[s] = &record;
  }
}

namespace {

/// Per-pair state for backward-counter correction (salvage mode).
struct DeltaCtx {
  bool tolerate = false;
  std::uint32_t resets = 0;
  std::uint32_t rollovers = 0;
};

/// Element `f` of `v`, bounds-checked like vector::at.
std::uint64_t at(std::span<const std::uint64_t> v, std::size_t f) {
  if (f >= v.size()) throw std::out_of_range("pair: field index out of range");
  return v[f];
}

/// One side's record of one type; `rec == nullptr` when its sample has none.
struct Rec {
  const ParsedFile* file = nullptr;
  const ParsedFile::Record* rec = nullptr;

  [[nodiscard]] std::size_t rows() const noexcept { return rec->row_end - rec->row_begin; }
  /// Values of row `i`, bounds-checked like vector::at.
  [[nodiscard]] std::span<const std::uint64_t> values(std::size_t i) const {
    if (i >= rows()) throw std::out_of_range("pair: row index out of range");
    return file->row_values(*rec, file->rows[rec->row_begin + i]);
  }
  [[nodiscard]] std::uint32_t device(std::size_t i) const noexcept {
    return file->rows[rec->row_begin + i].device;
  }
};

Rec get(const PairSample& s, PairSlot slot) {
  return {s.keys->file, s.rec[static_cast<std::size_t>(slot)]};
}

/// Delta of one event counter. Backward counters reject the pair in strict
/// mode; in tolerant mode a drop from the top half of the u64 range is a
/// rollover (unsigned wrap-around recovers the true delta) and any other
/// drop is a reset (the counter restarted from zero, so the new value is
/// the delta).
bool counter_delta(std::uint64_t va, std::uint64_t vb, DeltaCtx& ctx, double& out) {
  if (vb >= va) {
    out = static_cast<double>(vb - va);
    return true;
  }
  if (!ctx.tolerate) return false;
  if (va - vb > (1ULL << 63)) {
    ++ctx.rollovers;
    out = static_cast<double>(vb - va);  // u64 wrap-around = true delta
  } else {
    ++ctx.resets;
    out = static_cast<double>(vb);  // counts since the restart; clamp the rest
  }
  return true;
}

/// Sum delta of field `f` over all device rows present in both samples
/// (matched by position; devices are stable per node). Returns false when
/// the type is missing, the row sets diverge, or (strict) a counter went
/// backwards.
bool sum_delta(const Rec& a, const Rec& b, std::size_t f, DeltaCtx& ctx, double& out) {
  if (a.rec == nullptr || b.rec == nullptr) return false;
  if (a.rows() != b.rows()) return false;
  double total = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double d = 0.0;
    if (!counter_delta(at(a.values(i), f), at(b.values(i), f), ctx, d)) return false;
    total += d;
  }
  out = total;
  return true;
}

/// Device-specific delta of field `f` for the row of device `dev_a` in `a`
/// and `dev_b` in `b` (the same mount, numbered by each side's file).
bool dev_delta(const Rec& a, const Rec& b, std::uint32_t dev_a, std::uint32_t dev_b,
               std::size_t f, DeltaCtx& ctx, double& out) {
  if (a.rec == nullptr || b.rec == nullptr) return false;
  const auto find_row = [](const Rec& r, std::uint32_t dev) -> std::size_t {
    std::size_t i = 0;
    while (i < r.rows() && r.device(i) != dev) ++i;
    return i;
  };
  const std::size_t ia = find_row(a, dev_a);
  const std::size_t ib = find_row(b, dev_b);
  if (ia == a.rows() || ib == b.rows()) return false;
  return counter_delta(at(a.values(ia), f), at(b.values(ib), f), ctx, out);
}

/// Sum of gauge field `f` over the rows of `r`.
double sum_gauge(const Rec& r, std::size_t f) {
  double total = 0;
  for (std::size_t i = 0; i < r.rows(); ++i) total += static_cast<double>(at(r.values(i), f));
  return total;
}

}  // namespace

bool extract_pair(const PairSample& a, const PairSample& b, PairData& out,
                  const PairPolicy& policy) {
  if (b.time <= a.time) return false;
  out = PairData{};
  out.dt = static_cast<double>(b.time - a.time);
  DeltaCtx ctx{policy.tolerate_resets, 0, 0};

  // CPU: schema order user nice system idle iowait irq softirq.
  const Rec ca = get(a, PairSlot::kCpu);
  const Rec cb = get(b, PairSlot::kCpu);
  double nice = 0, iowait = 0, irq = 0, softirq = 0;
  if (!sum_delta(ca, cb, 0, ctx, out.user_cs) || !sum_delta(ca, cb, 1, ctx, nice) ||
      !sum_delta(ca, cb, 2, ctx, out.sys_cs) || !sum_delta(ca, cb, 3, ctx, out.idle_cs) ||
      !sum_delta(ca, cb, 4, ctx, iowait) || !sum_delta(ca, cb, 5, ctx, irq) ||
      !sum_delta(ca, cb, 6, ctx, softirq)) {
    return false;
  }
  out.user_cs += nice;
  out.sys_cs += iowait + irq + softirq;
  out.total_cs = out.user_cs + out.sys_cs + out.idle_cs;

  // Performance counters: CTL0..3 then CTR0..3; a slot counts toward flops
  // only when both samples agree it was programmed for SSE_FLOPS.
  const Rec pa = get(a, PairSlot::kPerf);
  const Rec pb = get(b, PairSlot::kPerf);
  if (pa.rec != nullptr && pb.rec != nullptr && pa.rows() == pb.rows()) {
    constexpr std::size_t kSlots = procsim::kPerfCountersPerCore;
    const auto flops_ctl = static_cast<std::uint64_t>(procsim::PerfEvent::kFlops);
    bool all_cores_valid = pa.rows() != 0;
    double total = 0.0;
    for (std::size_t c = 0; c < pa.rows(); ++c) {
      const auto ra = pa.values(c);
      const auto rb = pb.values(c);
      bool core_valid = false;
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (at(ra, s) == flops_ctl && at(rb, s) == flops_ctl &&
            at(rb, kSlots + s) >= at(ra, kSlots + s)) {
          total += static_cast<double>(at(rb, kSlots + s) - at(ra, kSlots + s));
          core_valid = true;
          break;
        }
      }
      all_cores_valid = all_cores_valid && core_valid;
    }
    out.flops_valid = all_cores_valid;
    out.flops = all_cores_valid ? total : 0.0;
  }

  // Memory gauges at b (MemUsed is field 1), summed over sockets; KB -> GB.
  if (const Rec mb = get(b, PairSlot::kMem); mb.rec != nullptr) {
    out.mem_gb = sum_gauge(mb, 1) / (1024.0 * 1024.0);
  }
  if (const Rec ma = get(a, PairSlot::kMem); ma.rec != nullptr) {
    out.mem_max_gb = std::max(out.mem_gb, sum_gauge(ma, 1) / (1024.0 * 1024.0));
  } else {
    out.mem_max_gb = out.mem_gb;
  }

  // Lustre llite: read_bytes=0 write_bytes=1.
  const Rec la = get(a, PairSlot::kLlite);
  const Rec lb = get(b, PairSlot::kLlite);
  const PairKeys& ka = *a.keys;
  const PairKeys& kb = *b.keys;
  (void)dev_delta(la, lb, ka.scratch, kb.scratch, 1, ctx, out.scratch_wr);
  (void)dev_delta(la, lb, ka.scratch, kb.scratch, 0, ctx, out.scratch_rd);
  (void)dev_delta(la, lb, ka.work, kb.work, 1, ctx, out.work_wr);
  double share_rd = 0, share_wr = 0;
  if (dev_delta(la, lb, ka.share, kb.share, 0, ctx, share_rd) &&
      dev_delta(la, lb, ka.share, kb.share, 1, ctx, share_wr)) {
    out.share_bytes = share_rd + share_wr;
  }

  // InfiniBand: rx_bytes=0 rx_packets=1 tx_bytes=2 tx_packets=3.
  const Rec ia = get(a, PairSlot::kIb);
  const Rec ib = get(b, PairSlot::kIb);
  (void)sum_delta(ia, ib, 2, ctx, out.ib_tx);
  (void)sum_delta(ia, ib, 0, ctx, out.ib_rx);

  // LNET: rx_bytes=0 tx_bytes=1.
  const Rec na = get(a, PairSlot::kLnet);
  const Rec nb = get(b, PairSlot::kLnet);
  (void)sum_delta(na, nb, 1, ctx, out.lnet_tx);
  (void)sum_delta(na, nb, 0, ctx, out.lnet_rx);

  // Swap activity: vm pswpin=2 pswpout=3, pages -> bytes.
  const Rec va = get(a, PairSlot::kVm);
  const Rec vb = get(b, PairSlot::kVm);
  double swpin = 0, swpout = 0;
  if (sum_delta(va, vb, 2, ctx, swpin) && sum_delta(va, vb, 3, ctx, swpout)) {
    out.swap_bytes = (swpin + swpout) * 4096.0;
  }

  // Load gauge at b (ps load_1 = field 2, scaled by 100).
  if (const Rec pload = get(b, PairSlot::kPs); pload.rec != nullptr) {
    out.load = static_cast<double>(at(pload.values(0), 2)) / 100.0;
  }
  out.reset = ctx.resets > 0;
  out.rollover = ctx.rollovers > 0;
  return true;
}

}  // namespace supremm::etl
