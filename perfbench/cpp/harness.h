// Measurement harness shared by the workloads: clocks, percentile summaries,
// the in-memory span recorder of the traced run, the host record and the
// result object every workload fills in.
//
// Spans are recorded from the benchmark's own code around calls into each
// src/ module's public functions; nothing inside the library is
// instrumented. A Tracer belongs to one thread (spans nest by a per-tracer
// stack); workloads with several client threads keep one per thread and
// merge them when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }
[[nodiscard]] inline double s_since(Clock::time_point t0) { return ms_since(t0) / 1e3; }

/// Linear-interpolated quantile of unsorted samples (0 for none).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Median plus the highest percentile that has enough samples beyond it:
/// p99 from 1000 samples on, p90 below that.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  const char* tail_name = "p90";
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// The samples in run order, space-separated, for a note line.
[[nodiscard]] std::string sample_list(const std::vector<double>& samples);

/// One recorded span: a layer boundary crossed by the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same tracer's spans, -1 = root
  std::uint64_t request = 0;
};

/// Busy time of one span name: total wall time and self time (total minus
/// the part covered by child spans), with the span count.
struct LayerTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}

  /// RAII span; a no-op when the tracer is off.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t idx_ = -1;
  };
  [[nodiscard]] Scope span(const char* name, std::uint64_t request) {
    return Scope(on_ ? this : nullptr, name, request);
  }
  /// Add an already-finished span as a child of the innermost open one (for
  /// an interval that starts inside a library callback).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request);

  /// Append another tracer's spans (parents are re-based).
  void merge(const Tracer& other);
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;
  /// Spans as JSON lines (name, start/end ns since the first span, parent,
  /// request id).
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Everything one run reports. Metrics keep insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> gate_lines;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  /// Record one correctness gate; a failing gate marks the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail);
};

/// End of a traced run: note every span name's count, total and self time,
/// and write the spans to `path` as JSON lines.
void finish_trace(Result& r, const Tracer& tr, const std::string& path);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The host record printed beside the metrics: core count, ISA, active SIMD
/// tier, fsync policy and the filesystem holding `dir`.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_record(
    const std::string& dir);

/// Human-readable lines (host, notes, gates, every metric with its unit)
/// followed by the one-line JSON result as the last line of stdout.
void print_result(const Result& r,
                  const std::vector<std::pair<std::string, std::string>>& host);

}  // namespace perfbench
