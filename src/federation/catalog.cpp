#include "federation/catalog.h"

#include <algorithm>
#include <cmath>

#include "warehouse/aggstate.h"

namespace supremm::federation {

namespace {

constexpr double kDaySeconds = 86400.0;

struct BucketCol {
  const char* name;
  std::int64_t grain;  // days per bucket
};

constexpr BucketCol kBucketCols[] = {
    {"day", 1}, {"week", 7}, {"month", 28}, {"quarter", 84}};

const BucketCol* bucket_col(const std::string& name) {
  for (const auto& b : kBucketCols) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

/// Conservative day-index floor of a seconds value (rounds down, then one
/// more day of slack for the double → int trip).
std::int64_t day_floor(double seconds) {
  const double d = std::floor(seconds / kDaySeconds);
  constexpr double kCap = 4.0e15;  // far past any simulated timeline
  return static_cast<std::int64_t>(std::clamp(d, -kCap, kCap)) - 1;
}

std::int64_t day_ceil(double seconds) {
  const double d = std::ceil(seconds / kDaySeconds);
  constexpr double kCap = 4.0e15;
  return static_cast<std::int64_t>(std::clamp(d, -kCap, kCap)) + 1;
}

}  // namespace

std::vector<std::size_t> Catalog::prune(const service::QuerySpec& spec) const {
  // Derive the query's conservative day window and required clusters from
  // the WHERE conjuncts. Conjunct semantics: every term must hold, so
  // windows intersect and any cluster equality is mandatory.
  std::int64_t q_lo = std::numeric_limits<std::int64_t>::min() / 2;
  std::int64_t q_hi = std::numeric_limits<std::int64_t>::max() / 2;
  std::vector<const std::string*> cluster_eq;

  for (const auto& t : spec.where) {
    if (t.op == service::TermOp::kEq) {
      if (t.column == "cluster") cluster_eq.push_back(&t.value);
      continue;
    }
    const bool has_lo = t.op == service::TermOp::kGe || t.op == service::TermOp::kBetween;
    const bool has_hi = t.op == service::TermOp::kLe || t.op == service::TermOp::kBetween;
    if ((has_lo && std::isnan(t.lo)) || (has_hi && std::isnan(t.hi))) continue;
    if (t.column == "end") {
      // end_day_index is monotone in end, so end >= lo bounds the day from
      // below and end <= hi from above.
      if (has_lo) q_lo = std::max(q_lo, day_floor(t.lo));
      if (has_hi) q_hi = std::min(q_hi, day_ceil(t.hi));
    } else if (const BucketCol* b = bucket_col(t.column)) {
      // Bucket-start seconds: start <= day*86400 and start >= (day-g+1)*86400,
      // so start >= lo gives day >= lo/86400 - g and start <= hi gives
      // day <= hi/86400 + g (slack absorbs the bucket alignment).
      if (has_lo) q_lo = std::max(q_lo, day_floor(t.lo) - b->grain);
      if (has_hi) q_hi = std::min(q_hi, day_ceil(t.hi) + b->grain);
    }
  }

  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardInfo& s = shards_[i];
    if (s.day_hi < q_lo || s.day_lo > q_hi) continue;
    bool cluster_ok = true;
    for (const std::string* want : cluster_eq) {
      if (!s.clusters.empty() &&
          std::find(s.clusters.begin(), s.clusters.end(), *want) == s.clusters.end()) {
        cluster_ok = false;
        break;
      }
    }
    if (cluster_ok) keep.push_back(i);
  }
  return keep;
}

std::vector<warehouse::partial::Level> Catalog::levels(
    const service::QuerySpec& spec, const std::vector<std::size_t>& contacted) const {
  using warehouse::partial::Level;
  if (contacted.size() == 1) return {Level::kGroups};
  const bool cluster_key = std::find(spec.group_by.begin(), spec.group_by.end(), "cluster") !=
                           spec.group_by.end();
  const auto shares_cluster = [](const ShardInfo& a, const ShardInfo& b) {
    if (a.clusters.empty() || b.clusters.empty()) return true;  // unknown: may share
    return std::any_of(a.clusters.begin(), a.clusters.end(), [&b](const std::string& c) {
      return std::find(b.clusters.begin(), b.clusters.end(), c) != b.clusters.end();
    });
  };
  std::vector<Level> out;
  out.reserve(contacted.size());
  for (const std::size_t i : contacted) {
    bool exclusive = true;
    for (const std::size_t j : contacted) {
      if (j != i && shares_cluster(shards_[i], shards_[j])) {
        exclusive = false;
        break;
      }
    }
    out.push_back(!exclusive ? Level::kDays : cluster_key ? Level::kGroups : Level::kTuples);
  }
  return out;
}

}  // namespace supremm::federation
