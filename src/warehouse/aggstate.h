// Shared aggregate-state arithmetic for the query engine and the rollup
// layer (DESIGN.md §11, §16).
//
// The engine's determinism contract fixes grouped aggregation as left-folds
// of partial AggStates in a canonical order. The rollup layer materializes
// exactly these partials per (user, app, cluster, day) cell and cascades
// them day → week → month → quarter, so a query served from any rollup
// level reproduces the raw scan bit-for-bit. Everything both sides must
// agree on byte-for-byte lives here: the state struct, the merge, the
// emission rules, the DST-free calendar, and the hierarchical time fold.
// The testkit oracle deliberately does NOT use this header — it keeps an
// independent implementation of the same contract (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/time.h"
#include "warehouse/query.h"

namespace supremm::warehouse {

/// A NaN-valued sum/mean is emitted as the canonical positive quiet NaN:
/// when several NaN payloads (or an inf + -inf indefinite) meet in
/// `acc += v`, which payload survives is an instruction-operand-order
/// artifact the compiler may legally flip between builds, so the canonical
/// payload is the only bit pattern that is actually deterministic.
[[nodiscard]] inline double canon_nan(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

/// Output column name when AggSpec::as is empty.
[[nodiscard]] inline std::string default_agg_name(const AggSpec& a) {
  switch (a.kind) {
    case AggKind::kSum:
      return a.column + "_sum";
    case AggKind::kMean:
      return a.column + "_mean";
    case AggKind::kWeightedMean:
      return a.column + "_wmean";
    case AggKind::kMax:
      return a.column + "_max";
    case AggKind::kMin:
      return a.column + "_min";
    case AggKind::kCount:
      return "count";
  }
  return a.column;
}

/// Partial aggregate over some row subset. Every kind's emission reads only
/// its own fields, so one state serves all kinds.
struct AggState {
  double sum = 0.0;
  double wsum = 0.0;
  double wvsum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  std::int64_t n = 0;
};

inline void merge_state(AggState& into, const AggState& from) {
  into.sum += from.sum;
  into.wsum += from.wsum;
  into.wvsum += from.wvsum;
  into.mn = std::min(into.mn, from.mn);
  into.mx = std::max(into.mx, from.mx);
  into.n += from.n;
}

inline void merge_states(AggState* into, const AggState* from, std::size_t n) {
  for (std::size_t a = 0; a < n; ++a) merge_state(into[a], from[a]);
}

/// Emitted value for the non-count kinds (count emits state.n as int64).
[[nodiscard]] inline double emit_agg(AggKind kind, const AggState& s) {
  switch (kind) {
    case AggKind::kSum:
      return canon_nan(s.sum);
    case AggKind::kMean:
      return s.n > 0 ? canon_nan(s.sum / static_cast<double>(s.n)) : 0.0;
    case AggKind::kWeightedMean:
      return s.wsum > 0.0 ? canon_nan(s.wvsum / s.wsum) : 0.0;
    case AggKind::kMax:
      return s.n > 0 ? s.mx : 0.0;
    case AggKind::kMin:
      return s.n > 0 ? s.mn : 0.0;
    case AggKind::kCount:
      return static_cast<double>(s.n);
  }
  return 0.0;
}

// Rollup calendar. The simulated timeline has no real calendar, so the
// buckets nest exactly and DST cannot exist by construction: a day is
// 86400 s, a week 7 days, a month 4 weeks, a quarter 3 months.
inline constexpr std::int64_t kDaysPerWeek = 7;
inline constexpr std::int64_t kDaysPerMonth = 28;
inline constexpr std::int64_t kDaysPerQuarter = 84;

/// Floor division (common::day_of truncates toward zero, which is wrong for
/// negative timestamps).
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// Day index of a timestamp interpreted as an interval END: day D covers
/// end ∈ (D·86400, (D+1)·86400]. This is the archive's own rule for
/// placing a job into its partition day, so rollup cells align exactly
/// with archive partitions and incremental maintenance never has to
/// rewrite a cell whose partitions did not change.
[[nodiscard]] constexpr std::int64_t end_day_index(std::int64_t end) noexcept {
  return floor_div(end - 1, common::kDay);
}

/// Hierarchical time fold (DESIGN.md §16). Feed it per-bucket partials in
/// ascending order of their first day index: each bucket folds left into
/// its week accumulator, completed weeks fold into the month, months into
/// the quarter, quarters into the total. Accumulators start at +0.0 and
/// accumulated sums are never -0.0, so folding through a fresh accumulator
/// is a bitwise no-op — which is why day-, week-, month- and quarter-level
/// partials all fold to identical bits, and a subsumable query can be
/// served from whichever rollup level is coarsest.
class TimeTreeFold {
 public:
  /// `total` points at `naggs` states that receive the final fold.
  TimeTreeFold(AggState* total, std::size_t naggs)
      : total_(total), naggs_(naggs), w_(naggs), m_(naggs), q_(naggs) {}

  /// `day` is the bucket's first day index; `states` holds naggs partials.
  void add(std::int64_t day, const AggState* states) {
    const std::int64_t wi = floor_div(day, kDaysPerWeek);
    const std::int64_t mi = floor_div(day, kDaysPerMonth);
    const std::int64_t qi = floor_div(day, kDaysPerQuarter);
    if (any_) {
      if (wi != wi_) flush(w_, m_);
      if (mi != mi_) flush(m_, q_);
      if (qi != qi_) flush_total();
    }
    wi_ = wi;
    mi_ = mi;
    qi_ = qi;
    any_ = true;
    for (std::size_t a = 0; a < naggs_; ++a) merge_state(w_[a], states[a]);
  }

  /// Flushes the open buckets into `total` and leaves the fold empty, so
  /// the next add() starts a fresh fold into the same `total`.
  void finish() {
    if (!any_) return;
    flush(w_, m_);
    flush(m_, q_);
    flush_total();
    any_ = false;
  }

 private:
  void flush(std::vector<AggState>& from, std::vector<AggState>& into) {
    for (std::size_t a = 0; a < naggs_; ++a) {
      merge_state(into[a], from[a]);
      from[a] = AggState{};
    }
  }
  void flush_total() {
    for (std::size_t a = 0; a < naggs_; ++a) {
      merge_state(total_[a], q_[a]);
      q_[a] = AggState{};
    }
  }

  AggState* total_;
  std::size_t naggs_;
  std::vector<AggState> w_, m_, q_;
  std::int64_t wi_ = 0, mi_ = 0, qi_ = 0;
  bool any_ = false;
};

}  // namespace supremm::warehouse
