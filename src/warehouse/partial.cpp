#include "warehouse/partial.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace supremm::warehouse::partial {

namespace {

/// Exact serialized identity of a tuple's key values: type tag plus the
/// raw payload (length-prefixed string, or the 8 value bytes verbatim), so
/// distinct doubles — including NaN payloads and ±0.0 — stay distinct and
/// no decimal rendering can conflate keys.
void append_key(std::string& out, const KeyValue& v) {
  out.push_back(static_cast<char>(v.type));
  switch (v.type) {
    case ColType::kString: {
      const auto len = static_cast<std::uint32_t>(v.str.size());
      out.append(reinterpret_cast<const char*>(&len), sizeof(len));
      out.append(v.str);
      break;
    }
    case ColType::kInt64:
      out.append(reinterpret_cast<const char*>(&v.i64), sizeof(v.i64));
      break;
    case ColType::kDouble:
      out.append(reinterpret_cast<const char*>(&v.bits), sizeof(v.bits));
      break;
  }
}

std::string tuple_identity(const TuplePartial& t) {
  std::string id;
  id.push_back(static_cast<char>(t.group.size()));
  for (const auto& v : t.group) append_key(id, v);
  for (const auto& v : t.extra) append_key(id, v);
  return id;
}

std::string group_identity(const TuplePartial& t) {
  std::string id;
  for (const auto& v : t.group) append_key(id, v);
  return id;
}

/// A tuple partial at `level` holds one state set per day entry, and a
/// folded one exactly one entry (and a group total no extra subkeys).
bool well_formed(const TuplePartial& t, Level level, std::size_t naggs) {
  if (t.days.empty() || t.states.size() != t.days.size() * naggs) return false;
  if (level != Level::kDays && t.days.size() != 1) return false;
  return level != Level::kGroups || t.extra.empty();
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kDays:
      return "days";
    case Level::kTuples:
      return "tuples";
    case Level::kGroups:
      return "groups";
  }
  return "unknown";
}

void fold_tuples(Partial& p) {
  const std::size_t naggs = p.naggs;
  std::vector<std::uint32_t> order;
  std::vector<AggState> total(naggs);
  std::vector<AggState> dup(naggs);
  TimeTreeFold fold(total.data(), naggs);  // finish() leaves it fresh again
  for (TuplePartial& t : p.tuples) {
    const std::size_t n = t.days.size();
    if (n == 0 || t.states.size() != n * naggs) {
      throw common::InvalidArgument("fold_tuples: malformed tuple partial");
    }
    // Sort the day entries ascending; a stable sort keeps equal days in list
    // order so the defensive in-place merge below is deterministic.
    order.resize(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::stable_sort(order.begin(), order.end(), [&t](std::uint32_t a, std::uint32_t b) {
      return t.days[a] < t.days[b];
    });

    std::fill(total.begin(), total.end(), AggState{});
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t day = t.days[order[i]];
      std::size_t j = i + 1;
      while (j < n && t.days[order[j]] == day) ++j;
      if (j == i + 1) {
        fold.add(day, t.states.data() + std::size_t{order[i]} * naggs);
      } else {
        std::fill(dup.begin(), dup.end(), AggState{});
        for (std::size_t x = i; x < j; ++x) {
          merge_states(dup.data(), t.states.data() + std::size_t{order[x]} * naggs, naggs);
        }
        fold.add(day, dup.data());
      }
      i = j;
    }
    fold.finish();
    t.days.assign(1, t.days[order[0]]);
    t.states.assign(total.begin(), total.end());
  }
  if (p.level == Level::kDays) p.level = Level::kTuples;
}

void merge_groups(Partial& p) {
  if (p.level == Level::kDays) {
    throw common::InvalidArgument("merge_groups: tuples are not folded");
  }
  const std::size_t naggs = p.naggs;
  // Canonical tuple order: ascending rank (= min job id for the federation;
  // exactly the engine's first-match order on a rank-sorted table). Groups
  // then form in first-seen order over that sequence, which makes the group
  // order ascending min rank as well — the engine's group order.
  std::vector<std::uint32_t> order(p.tuples.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&p](std::uint32_t a, std::uint32_t b) {
    return p.tuples[a].rank < p.tuples[b].rank;
  });

  std::unordered_map<std::string, std::uint32_t> group_index;
  std::vector<TuplePartial> groups;
  for (const std::uint32_t ti : order) {
    TuplePartial& t = p.tuples[ti];
    if (t.days.size() != 1 || t.states.size() != naggs) {
      throw common::InvalidArgument("merge_groups: malformed tuple partial");
    }
    const auto [it, inserted] =
        group_index.emplace(group_identity(t), static_cast<std::uint32_t>(groups.size()));
    if (inserted) {
      TuplePartial g;
      g.group = std::move(t.group);
      g.rank = t.rank;
      g.days = t.days;
      g.states.resize(naggs);
      groups.push_back(std::move(g));
    }
    TuplePartial& g = groups[it->second];
    g.days[0] = std::min(g.days[0], t.days[0]);
    merge_states(g.states.data(), t.states.data(), naggs);
  }
  p.tuples = std::move(groups);
  p.level = Level::kGroups;
}

Table emit(const Partial& p, const std::vector<AggSpec>& aggs, const std::string& out_name) {
  if (p.level != Level::kGroups) {
    throw common::InvalidArgument("emit: partial is not merged into groups");
  }
  if (aggs.size() != p.naggs) {
    throw common::InvalidArgument("emit: aggregate count mismatch");
  }
  std::vector<std::pair<std::string, ColType>> schema = p.key_schema;
  std::vector<std::string> agg_names;
  agg_names.reserve(aggs.size());
  for (const auto& a : aggs) {
    agg_names.push_back(a.as.empty() ? default_agg_name(a) : a.as);
    schema.emplace_back(agg_names.back(),
                        a.kind == AggKind::kCount ? ColType::kInt64 : ColType::kDouble);
  }
  Table out(out_name, std::move(schema));
  for (const TuplePartial& g : p.tuples) {
    if (g.group.size() != p.key_schema.size() || g.states.size() != p.naggs) {
      throw common::InvalidArgument("emit: malformed group partial");
    }
    auto row = out.append();
    for (std::size_t k = 0; k < p.key_schema.size(); ++k) {
      const auto& [name, type] = p.key_schema[k];
      const KeyValue& v = g.group[k];
      switch (type) {
        case ColType::kString:
          row.set(name, v.str);
          break;
        case ColType::kInt64:
          row.set(name, v.i64);
          break;
        case ColType::kDouble:
          row.set(name, std::bit_cast<double>(v.bits));
          break;
      }
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggState& s = g.states[a];
      if (aggs[a].kind == AggKind::kCount) {
        row.set(agg_names[a], s.n);
      } else {
        row.set(agg_names[a], emit_agg(aggs[a].kind, s));
      }
    }
  }
  out.finalize_rows();
  return out;
}

void fold_to(Partial& p, Level level) {
  if (level >= Level::kTuples && p.level < Level::kTuples) fold_tuples(p);
  if (level >= Level::kGroups && p.level < Level::kGroups) merge_groups(p);
}

Table merge_partials(std::span<const Partial> parts, const std::vector<AggSpec>& aggs,
                     const std::string& out_name, QueryStats* stats) {
  if (parts.empty()) {
    throw common::InvalidArgument("merge_partials: no shard partials");
  }
  const Partial& first = parts.front();
  const std::size_t naggs = first.naggs;
  if (naggs != aggs.size()) {
    throw common::InvalidArgument("merge_partials: aggregate count mismatch");
  }
  Partial merged;
  merged.key_schema = first.key_schema;
  merged.naggs = naggs;
  bool any_groups = false;
  for (const Partial& p : parts) {
    if (p.key_schema != first.key_schema || p.naggs != naggs) {
      throw common::InvalidArgument("merge_partials: shard partial schema mismatch");
    }
    merged.stats.chunks_total += p.stats.chunks_total;
    merged.stats.chunks_pruned += p.stats.chunks_pruned;
    merged.stats.rows_scanned += p.stats.rows_scanned;
    merged.stats.rows_matched += p.stats.rows_matched;
    any_groups = any_groups || p.level == Level::kGroups;
  }

  // A folded total is exact only when no other partial holds a row of its
  // unit: a group total's group, or a tuple total's tuple, must come from
  // one partial alone.
  std::unordered_set<std::string> folded_groups;
  if (any_groups) {
    for (const Partial& p : parts) {
      if (p.level != Level::kGroups) continue;
      for (const TuplePartial& t : p.tuples) {
        if (!folded_groups.insert(group_identity(t)).second) {
          throw common::InvalidArgument("merge_partials: folded group reported twice");
        }
      }
    }
  }

  // Union tuples across shards in `parts` order: rank = min over shards,
  // day lists concatenate (disjoint under the placement contract).
  struct Slot {
    std::uint32_t index;
    bool folded;
  };
  std::unordered_map<std::string, Slot> tuple_index;
  for (const Partial& p : parts) {
    const bool folded = p.level != Level::kDays;
    for (const TuplePartial& t : p.tuples) {
      if (!well_formed(t, p.level, naggs)) {
        throw common::InvalidArgument("merge_partials: malformed tuple partial");
      }
      if (any_groups && p.level != Level::kGroups &&
          folded_groups.contains(group_identity(t))) {
        throw common::InvalidArgument(
            "merge_partials: folded group reported by two partials");
      }
      const auto [it, inserted] = tuple_index.emplace(
          tuple_identity(t), Slot{static_cast<std::uint32_t>(merged.tuples.size()), folded});
      if (inserted) {
        // Extra subkeys only identify a tuple across partials; once unioned,
        // the stages read its group keys, rank and cells alone.
        TuplePartial& m = merged.tuples.emplace_back();
        m.group = t.group;
        m.rank = t.rank;
        m.days = t.days;
        m.states = t.states;
        continue;
      }
      if (folded || it->second.folded) {
        throw common::InvalidArgument(
            "merge_partials: folded tuple reported by two partials");
      }
      TuplePartial& m = merged.tuples[it->second.index];
      m.rank = std::min(m.rank, t.rank);
      m.days.insert(m.days.end(), t.days.begin(), t.days.end());
      m.states.insert(m.states.end(), t.states.begin(), t.states.end());
    }
  }

  fold_tuples(merged);
  merge_groups(merged);
  if (stats != nullptr) *stats = merged.stats;
  return emit(merged, aggs, out_name);
}

}  // namespace supremm::warehouse::partial
