#include "warehouse/partial.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/error.h"
#include "warehouse/tuple_index.h"

namespace supremm::warehouse::partial {

namespace {

std::optional<std::string> column_error(const KeyColumn& c, std::size_t tuples,
                                        const std::string& what) {
  if (c.type != ColType::kString && c.type != ColType::kInt64 && c.type != ColType::kDouble) {
    return what + " has an unknown type";
  }
  if (c.size() != tuples) {
    return what + " holds " + std::to_string(c.size()) + " values for " +
           std::to_string(tuples) + " tuples";
  }
  if (c.type == ColType::kString) {
    for (const std::uint32_t code : c.codes) {
      if (code >= c.dict.size()) {
        return what + " code " + std::to_string(code) + " is outside its " +
               std::to_string(c.dict.size()) + "-entry dictionary";
      }
    }
  }
  return std::nullopt;
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

KeyColumn key_column(const Column& source, std::vector<std::uint64_t> words) {
  KeyColumn c;
  c.type = source.type();
  if (c.type != ColType::kString) {
    c.words = std::move(words);
    return c;
  }
  std::vector<std::uint32_t> local(source.dict().size(), TupleIndex::kNone);
  c.codes.reserve(words.size());
  for (const std::uint64_t code : words) {
    std::uint32_t& l = local.at(code);
    if (l == TupleIndex::kNone) {
      l = static_cast<std::uint32_t>(c.dict.size());
      c.dict.emplace_back(source.decode(static_cast<std::int32_t>(code)));
    }
    c.codes.push_back(l);
  }
  return c;
}

std::optional<std::string> shape_error(const Partial& p) {
  const std::size_t n = p.tuples();
  if (p.group.size() != p.key_schema.size()) {
    return std::to_string(p.group.size()) + " group columns for a " +
           std::to_string(p.key_schema.size()) + "-key schema";
  }
  if (p.level == Level::kGroups && !p.extra.empty()) {
    return "group total carries " + std::to_string(p.extra.size()) + " extra columns";
  }
  for (std::size_t k = 0; k < p.group.size(); ++k) {
    if (p.group[k].type != p.key_schema[k].second) {
      return "group column " + p.key_schema[k].first + " differs from its schema type";
    }
    if (auto e = column_error(p.group[k], n, "group column " + p.key_schema[k].first)) return e;
  }
  for (std::size_t k = 0; k < p.extra.size(); ++k) {
    if (auto e = column_error(p.extra[k], n, "extra column " + std::to_string(k))) return e;
  }
  if (p.day_end.size() != n) {
    return std::to_string(p.day_end.size()) + " day-end offsets for " + std::to_string(n) +
           " tuples";
  }
  const bool folded = p.level != Level::kDays;
  std::uint32_t begin = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t end = p.day_end[t];
    if (end <= begin || (folded && end - begin != 1)) {
      return std::string(to_string(p.level)) + "-level tuple " + std::to_string(t) +
             " carries " + (end <= begin ? "no" : std::to_string(end - begin)) +
             " day entries";
    }
    if (end > p.days.size()) {
      return "tuple " + std::to_string(t) + " day-end offset " + std::to_string(end) +
             " is past the " + std::to_string(p.days.size()) + " day entries";
    }
    for (std::uint32_t d = begin + 1; d < end; ++d) {
      if (p.days[d] <= p.days[d - 1]) {
        return "tuple " + std::to_string(t) + " day list is not strictly ascending";
      }
    }
    begin = end;
  }
  const std::size_t covered = n == 0 ? 0 : p.day_end.back();
  if (covered != p.days.size()) {
    return "day-end offsets cover " + std::to_string(covered) + " of " +
           std::to_string(p.days.size()) + " day entries";
  }
  if (p.states.size() != p.days.size() * p.naggs) {
    return std::to_string(p.states.size()) + " states for " + std::to_string(p.days.size()) +
           " day entries of " + std::to_string(p.naggs) + " aggregates";
  }
  return std::nullopt;
}

void fold_tuples(Partial& p) {
  const std::size_t naggs = p.naggs;
  const std::size_t n = p.tuples();
  if (p.day_end.size() != n || p.states.size() != p.days.size() * naggs ||
      (n > 0 ? p.day_end.back() : 0) != p.days.size()) {
    throw common::InvalidArgument("fold_tuples: malformed partial");
  }
  std::vector<std::uint32_t> order;
  std::vector<AggState> total(naggs);
  std::vector<AggState> dup(naggs);
  TimeTreeFold fold(total.data(), naggs);  // finish() leaves it fresh again
  std::uint32_t begin = 0;
  // Each tuple's total lands in entry t, at or before its own first entry,
  // so the arrays compact in place.
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t end = p.day_end[t];
    if (end <= begin) throw common::InvalidArgument("fold_tuples: empty day list");
    // Sort the day entries ascending; a stable sort keeps equal days in list
    // order so the defensive in-place merge below is deterministic.
    order.resize(end - begin);
    std::iota(order.begin(), order.end(), begin);
    const auto by_day = [&p](std::uint32_t a, std::uint32_t b) { return p.days[a] < p.days[b]; };
    if (!std::is_sorted(order.begin(), order.end(), by_day)) {
      std::stable_sort(order.begin(), order.end(), by_day);
    }

    std::fill(total.begin(), total.end(), AggState{});
    std::size_t i = 0;
    while (i < order.size()) {
      const std::int64_t day = p.days[order[i]];
      std::size_t j = i + 1;
      while (j < order.size() && p.days[order[j]] == day) ++j;
      if (j == i + 1) {
        fold.add(day, p.states.data() + std::size_t{order[i]} * naggs);
      } else {
        std::fill(dup.begin(), dup.end(), AggState{});
        for (std::size_t x = i; x < j; ++x) {
          merge_states(dup.data(), p.states.data() + std::size_t{order[x]} * naggs, naggs);
        }
        fold.add(day, dup.data());
      }
      i = j;
    }
    fold.finish();
    p.days[t] = p.days[order[0]];
    std::copy(total.begin(), total.end(), p.states.begin() + static_cast<std::ptrdiff_t>(t * naggs));
    p.day_end[t] = static_cast<std::uint32_t>(t + 1);
    begin = end;
  }
  p.days.resize(n);
  p.states.resize(n * naggs);
  if (p.level == Level::kDays) p.level = Level::kTuples;
}

void merge_groups(Partial& p) {
  if (p.level == Level::kDays) {
    throw common::InvalidArgument("merge_groups: tuples are not folded");
  }
  const std::size_t naggs = p.naggs;
  const std::size_t n = p.tuples();
  if (p.days.size() != n || p.states.size() != n * naggs) {
    throw common::InvalidArgument("merge_groups: malformed tuple partial");
  }
  // Canonical tuple order: ascending rank (= min job id for the federation;
  // exactly the engine's first-match order on a rank-sorted table). Groups
  // then form in first-seen order over that sequence, which makes the group
  // order ascending min rank as well — the engine's group order.
  // Sorting (rank, index) pairs is the stable sort by rank.
  std::vector<std::pair<std::int64_t, std::uint32_t>> order(n);
  for (std::uint32_t t = 0; t < n; ++t) order[t] = {p.rank[t], t};
  std::sort(order.begin(), order.end());

  // A group is its tuples' group words; within one partial a code names one
  // string, so codes compare as the strings would.
  const std::size_t width = p.group.size();
  TupleIndex index(width);
  std::vector<std::uint64_t> key(width);
  std::vector<std::uint32_t> first;  // per group: its first tuple
  std::vector<std::int64_t> rank;
  std::vector<std::int64_t> days;
  std::vector<AggState> states;
  for (const auto& [r, t] : order) {
    for (std::size_t k = 0; k < width; ++k) key[k] = p.group[k].word(t);
    const std::uint32_t g = index.insert(key.data());
    if (g == first.size()) {
      first.push_back(t);
      rank.push_back(r);
      days.push_back(p.days[t]);
      states.resize(states.size() + naggs);
    }
    days[g] = std::min(days[g], p.days[t]);
    merge_states(states.data() + std::size_t{g} * naggs, p.states.data() + std::size_t{t} * naggs,
                 naggs);
  }
  for (KeyColumn& c : p.group) {
    if (c.type == ColType::kString) {
      std::vector<std::uint32_t> codes(first.size());
      for (std::size_t g = 0; g < first.size(); ++g) codes[g] = c.codes[first[g]];
      c.codes = std::move(codes);
    } else {
      std::vector<std::uint64_t> words(first.size());
      for (std::size_t g = 0; g < first.size(); ++g) words[g] = c.words[first[g]];
      c.words = std::move(words);
    }
  }
  p.extra.clear();
  p.rank = std::move(rank);
  p.day_end.resize(first.size());
  std::iota(p.day_end.begin(), p.day_end.end(), std::uint32_t{1});
  p.days = std::move(days);
  p.states = std::move(states);
  p.level = Level::kGroups;
}

Table emit(const Partial& p, const std::vector<AggSpec>& aggs, const std::string& out_name) {
  if (p.level != Level::kGroups) {
    throw common::InvalidArgument("emit: partial is not merged into groups");
  }
  if (aggs.size() != p.naggs) {
    throw common::InvalidArgument("emit: aggregate count mismatch");
  }
  if (auto e = shape_error(p)) {
    throw common::InvalidArgument("emit: malformed group partial: " + *e);
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
  for (std::size_t g = 0; g < p.tuples(); ++g) {
    auto row = out.append();
    for (std::size_t k = 0; k < p.key_schema.size(); ++k) {
      const std::string& name = p.key_schema[k].first;
      const KeyColumn& c = p.group[k];
      switch (c.type) {
        case ColType::kString:
          row.set(name, std::string_view(c.dict[c.codes[g]]));
          break;
        case ColType::kInt64:
          row.set(name, static_cast<std::int64_t>(c.words[g]));
          break;
        case ColType::kDouble:
          row.set(name, std::bit_cast<double>(c.words[g]));
          break;
      }
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggState& s = p.states[g * p.naggs + a];
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
  std::size_t max_extra = 0;
  std::size_t total_tuples = 0;
  std::size_t total_entries = 0;
  for (const Partial& p : parts) {
    if (p.key_schema != first.key_schema || p.naggs != naggs) {
      throw common::InvalidArgument("merge_partials: shard partial schema mismatch");
    }
    if (auto e = shape_error(p)) {
      throw common::InvalidArgument("merge_partials: malformed tuple partial: " + *e);
    }
    merged.stats.chunks_total += p.stats.chunks_total;
    merged.stats.chunks_pruned += p.stats.chunks_pruned;
    merged.stats.rows_scanned += p.stats.rows_scanned;
    merged.stats.rows_matched += p.stats.rows_matched;
    any_groups = any_groups || p.level == Level::kGroups;
    max_extra = std::max(max_extra, p.extra.size());
    total_tuples += p.tuples();
    total_entries += p.days.size();
  }
  if (total_entries > std::numeric_limits<std::uint32_t>::max()) {
    throw common::InvalidArgument("merge_partials: more than 2^32 day entries");
  }

  // One dictionary per string key column across the parts, keyed by views
  // of the parts' own dictionary strings: each string is hashed once per
  // part, and every part's codes remap into it. Dictionaries differ per
  // shard, so only remapped codes are ever compared.
  const std::size_t ngroup = first.key_schema.size();
  std::vector<std::unordered_map<std::string_view, std::uint32_t>> dicts(ngroup + max_extra);
  std::vector<std::vector<std::vector<std::uint32_t>>> remap(parts.size());
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const Partial& p = parts[pi];
    remap[pi].resize(ngroup + p.extra.size());
    for (std::size_t c = 0; c < remap[pi].size(); ++c) {
      const KeyColumn& col = c < ngroup ? p.group[c] : p.extra[c - ngroup];
      if (col.type != ColType::kString) continue;
      auto& dict = dicts[c];
      remap[pi][c].reserve(col.dict.size());
      for (const std::string& s : col.dict) {
        remap[pi][c].push_back(
            dict.try_emplace(s, static_cast<std::uint32_t>(dict.size())).first->second);
      }
    }
  }
  for (std::size_t k = 0; k < ngroup; ++k) {
    KeyColumn& c = merged.group.emplace_back();
    c.type = first.key_schema[k].second;
    if (c.type != ColType::kString) continue;
    c.dict.resize(dicts[k].size());
    for (const auto& [s, code] : dicts[k]) c.dict[code] = std::string(s);
  }

  // A tuple's union key: its extra-column count (a group total has none, so
  // it never matches a tuple), its group words, then a (type, word) pair per
  // extra column, zero-padded to the widest part.
  const std::size_t width = 1 + ngroup + 2 * max_extra;
  std::vector<std::uint64_t> key(width);
  const std::uint64_t* group_words = key.data() + 1;
  const auto fill_key = [&](std::size_t pi, std::size_t t) {
    const Partial& p = parts[pi];
    std::fill(key.begin(), key.end(), 0);
    key[0] = p.extra.size();
    for (std::size_t c = 0; c < ngroup + p.extra.size(); ++c) {
      const KeyColumn& col = c < ngroup ? p.group[c] : p.extra[c - ngroup];
      const std::uint64_t word =
          col.type == ColType::kString ? remap[pi][c][col.codes[t]] : col.words[t];
      if (c < ngroup) {
        key[1 + c] = word;
      } else {
        key[1 + ngroup + 2 * (c - ngroup)] = static_cast<std::uint64_t>(col.type);
        key[2 + ngroup + 2 * (c - ngroup)] = word;
      }
    }
  };

  // A folded total is exact only when no other partial holds a row of its
  // unit: a group total's group, or a tuple total's tuple, must come from
  // one partial alone.
  TupleIndex folded_groups(ngroup);
  if (any_groups) {
    for (std::size_t pi = 0; pi < parts.size(); ++pi) {
      if (parts[pi].level != Level::kGroups) continue;
      for (std::size_t t = 0; t < parts[pi].tuples(); ++t) {
        fill_key(pi, t);
        const std::size_t before = folded_groups.size();
        if (folded_groups.insert(group_words) != before) {
          throw common::InvalidArgument("merge_partials: folded group reported twice");
        }
      }
    }
  }

  // Union tuples across shards in `parts` order: rank = min over shards,
  // day lists concatenate (disjoint under the placement contract).
  TupleIndex index(width);
  index.reserve(total_tuples);
  std::vector<std::uint8_t> folded;       // per merged tuple
  std::vector<std::uint32_t> entries;     // per merged tuple: its day entry count
  std::vector<std::uint32_t> owner;       // per (part, tuple), in parts order
  owner.reserve(total_tuples);
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const Partial& p = parts[pi];
    const bool part_folded = p.level != Level::kDays;
    for (std::size_t t = 0; t < p.tuples(); ++t) {
      fill_key(pi, t);
      if (any_groups && p.level != Level::kGroups &&
          folded_groups.find(group_words) != TupleIndex::kNone) {
        throw common::InvalidArgument(
            "merge_partials: folded group reported by two partials");
      }
      const std::uint32_t m = index.insert(key.data());
      if (m == folded.size()) {
        // Extra subkeys only identify a tuple across partials; once unioned,
        // the stages read its group keys, rank and cells alone.
        folded.push_back(part_folded ? 1 : 0);
        entries.push_back(0);
        merged.rank.push_back(p.rank[t]);
        for (std::size_t k = 0; k < ngroup; ++k) {
          KeyColumn& c = merged.group[k];
          if (c.type == ColType::kString) {
            c.codes.push_back(static_cast<std::uint32_t>(key[1 + k]));
          } else {
            c.words.push_back(key[1 + k]);
          }
        }
      } else if (part_folded || folded[m] != 0) {
        throw common::InvalidArgument(
            "merge_partials: folded tuple reported by two partials");
      } else {
        merged.rank[m] = std::min(merged.rank[m], p.rank[t]);
      }
      entries[m] += p.day_end[t] - static_cast<std::uint32_t>(p.day_begin(t));
      owner.push_back(m);
    }
  }

  // Each merged tuple's entries in parts order: a stable counting scatter
  // by merged tuple.
  const std::size_t ntuples = folded.size();
  merged.day_end.resize(ntuples);
  std::vector<std::uint32_t> cursor(ntuples);
  std::uint32_t at = 0;
  for (std::size_t m = 0; m < ntuples; ++m) {
    cursor[m] = at;
    at += entries[m];
    merged.day_end[m] = at;
  }
  merged.days.resize(total_entries);
  merged.states.resize(total_entries * naggs);
  std::size_t next = 0;
  for (const Partial& p : parts) {
    for (std::size_t t = 0; t < p.tuples(); ++t) {
      std::uint32_t& to = cursor[owner[next++]];
      for (std::size_t e = p.day_begin(t); e < p.day_end[t]; ++e, ++to) {
        merged.days[to] = p.days[e];
        std::copy_n(p.states.begin() + static_cast<std::ptrdiff_t>(e * naggs), naggs,
                    merged.states.begin() + static_cast<std::ptrdiff_t>(std::size_t{to} * naggs));
      }
    }
  }

  fold_tuples(merged);
  merge_groups(merged);
  if (stats != nullptr) *stats = merged.stats;
  return emit(merged, aggs, out_name);
}

}  // namespace supremm::warehouse::partial
