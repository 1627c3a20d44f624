#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common/simd.h"
#include "common/strings.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = quantile(samples, 0.5);
  const bool p99 = samples.size() >= 1000;
  s.tail_name = p99 ? "p99" : "p90";
  s.tail = quantile(samples, p99 ? 0.99 : 0.90);
  return s;
}

std::string sample_list(const std::vector<double>& samples) {
  std::string out;
  for (const double v : samples) {
    out += (out.empty() ? "" : " ") + supremm::common::strprintf("%.4g", v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t request) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = t_->stack_.empty() ? -1 : t_->stack_.back();
  s.request = request;
  idx_ = static_cast<std::int32_t>(t_->spans_.size());
  t_->spans_.push_back(s);
  t_->stack_.push_back(idx_);
  t_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  t_->stack_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t request) {
  if (!on_) return;
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
  };
  spans_.push_back({name, ns(start), ns(end), stack_.empty() ? -1 : stack_.back(), request});
}

void Tracer::merge(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& lt = out[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    lt.total_ms += dur / 1e6;
    lt.self_ms += (dur - static_cast<double>(child_ns[i])) / 1e6;
    ++lt.count;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Result and host record

void Result::gate(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) correct = false;
  gate_lines.push_back(supremm::common::strprintf("gate %-34s %s  %s", name.c_str(),
                                                  ok ? "PASS" : "FAIL", detail.c_str()));
}

void finish_trace(Result& r, const Tracer& tr, const std::string& path) {
  for (const auto& [name, lt] : tr.layer_times()) {
    r.note("span " + name, supremm::common::strprintf(
                               "%llu spans, %.3f ms total, %.3f ms self",
                               static_cast<unsigned long long>(lt.count), lt.total_ms,
                               lt.self_ms));
  }
  tr.write_jsonl(path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

const char* isa() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

std::string filesystem_of(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default:
      return supremm::common::strprintf("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_record(const std::string& dir) {
  namespace simd = supremm::common::simd;
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"isa", isa()},
      {"simd_tier", std::string(simd::tier_name(simd::active_tier()))},
      {"fsync", "real fsync on every archive commit (CountingIoPolicy, nothing skipped)"},
      {"archive_fs", filesystem_of(dir)},
      {"label", "results from a shared sandbox host; not device or scaling results"},
  };
}

void print_result(const Result& r,
                  const std::vector<std::pair<std::string, std::string>>& host) {
  for (const auto& [k, v] : host) std::printf("host   %-22s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : r.notes) std::printf("note   %-22s %s\n", k.c_str(), v.c_str());
  for (const auto& g : r.gate_lines) std::printf("%s\n", g.c_str());
  std::printf("result %-36s %llu of %llu attempts (%.6g)\n", "failed_frac",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                              : 0.0);
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += supremm::common::strprintf(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                                     static_cast<unsigned long long>(r.attempted),
                                     static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json += supremm::common::strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                       i == 0 ? "" : ", ", json_escape(m.name).c_str(), v,
                                       json_escape(m.unit).c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
