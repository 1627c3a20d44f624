#include "federation/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "archive/partition.h"
#include "common/cancel.h"
#include "common/time.h"
#include "common/error.h"
#include "warehouse/aggstate.h"
#include "warehouse/tuple_index.h"

namespace supremm::federation {

namespace {

const char* const kDims[] = {"user", "app", "cluster"};

struct BucketKey {
  const char* name;
  std::int64_t grain;
};

constexpr BucketKey kBucketKeys[] = {
    {"day", 1}, {"week", 7}, {"month", 28}, {"quarter", 84}};

const BucketKey* bucket_key(const std::string& name) {
  for (const auto& b : kBucketKeys) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

}  // namespace

ShardExecutor::ShardExecutor(std::string name, warehouse::Table jobs, Options opts)
    : name_(std::move(name)), jobs_(std::move(jobs)), opts_(std::move(opts)) {
  if (jobs_.time_partition().empty()) {
    warehouse::rollup::augment_jobs_table(jobs_);
  }
  if (opts_.rollups) {
    rollups_ = std::make_unique<warehouse::rollup::RollupSet>(
        warehouse::rollup::build_from_table(jobs_));
  }
  jobs_.rebuild_zone_index(archive::kDefaultChunkRows);
}

ShardExecutor::ShardExecutor(std::string name, warehouse::Table jobs)
    : ShardExecutor(std::move(name), std::move(jobs), Options{}) {}

ShardInfo ShardExecutor::info() const {
  ShardInfo info;
  info.name = name_;
  const auto dict = jobs_.col("cluster").dict();
  info.clusters.assign(dict.begin(), dict.end());
  const auto ends = jobs_.col("end").int64s();
  if (ends.empty()) {
    info.day_lo = 0;
    info.day_hi = -1;  // empty range: bounded queries prune this shard
    return info;
  }
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (const std::int64_t e : ends) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  info.day_lo = warehouse::end_day_index(lo);
  info.day_hi = warehouse::end_day_index(hi);
  return info;
}

wire::PartialMsg ShardExecutor::rollup_partial(const warehouse::rollup::Plan& plan,
                                               warehouse::partial::Level level) const {
  // A day-level answer reads level-0 (day) cells whatever level the plan
  // resolved: the coordinator may union them with other shards' day cells,
  // and a day cell is exactly the raw contract's micro-cell (rollup::serve
  // reconstructs the same states; the rollup differential suite pins that
  // equivalence). A folded answer reads the plan's coarsest level, whose
  // cells tree-fold to the same tuple totals as the day cells they cover.
  const std::size_t li = level == warehouse::partial::Level::kDays ? 0 : plan.level;
  const warehouse::Table& t = rollups_->level(li);
  const std::int64_t grain = warehouse::rollup::levels()[li].grain;
  const std::size_t naggs = plan.aggs.size();

  wire::PartialMsg msg;
  msg.rollup_served = true;
  auto& p = msg.partial;
  p.naggs = naggs;
  for (const std::string& k : plan.group_by) {
    p.key_schema.emplace_back(k, bucket_key(k) != nullptr ? warehouse::ColType::kInt64
                                                          : warehouse::ColType::kString);
  }

  // Dim equality literals resolve to this shard's dictionary codes; a miss
  // selects nothing (rows_scanned 0, the documented rollup accounting).
  bool empty = false;
  std::vector<std::pair<const std::int32_t*, std::int32_t>> dim_tests;
  for (const auto& [col, val] : plan.dim_eq) {
    const auto code = t.col(col).find_code(val);
    if (!code) {
      empty = true;
      break;
    }
    dim_tests.emplace_back(t.col(col).codes().data(), *code);
  }

  const std::int64_t* bucket = t.col("bucket").int64s().data();
  const std::int64_t* rows_col = t.col("rows").int64s().data();
  const std::int64_t* min_jid = t.col("min_jobid").int64s().data();
  const double* node_hours_sum = t.col("node_hours_sum").doubles().data();

  struct MetricCols {
    const double* sum = nullptr;
    const double* mn = nullptr;
    const double* mx = nullptr;
    const double* wv = nullptr;
  };
  std::vector<MetricCols> agg_cols(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    const warehouse::AggSpec& spec = plan.aggs[a];
    if (spec.kind == warehouse::AggKind::kCount) continue;
    agg_cols[a].sum = t.col(spec.column + "_sum").doubles().data();
    agg_cols[a].mn = t.col(spec.column + "_min").doubles().data();
    agg_cols[a].mx = t.col(spec.column + "_max").doubles().data();
    agg_cols[a].wv = t.col(spec.column + "_wv").doubles().data();
  }

  // Tuple key words straight from the level table: dim codes, bucket-key
  // starts in seconds, then the dims that are not group keys.
  struct KeyView {
    const warehouse::Column* col = nullptr;  // dim
    const std::int32_t* codes = nullptr;     // dim
    std::int64_t grain = 0;                  // bucket key (days)
  };
  std::vector<KeyView> key_views;
  const auto dim_view = [&t](const std::string& name) {
    const warehouse::Column& c = t.col(name);
    return KeyView{&c, c.codes().data(), 0};
  };
  for (const std::string& k : plan.group_by) {
    const BucketKey* b = bucket_key(k);
    key_views.push_back(b != nullptr ? KeyView{nullptr, nullptr, b->grain} : dim_view(k));
  }
  for (const char* d : kDims) {
    if (std::find(plan.group_by.begin(), plan.group_by.end(), d) == plan.group_by.end()) {
      key_views.push_back(dim_view(d));
    }
  }

  // Select cells and key them into tuples. Table order is (bucket ASC,
  // min_jobid ASC), so tuples form in first-seen order and each tuple's
  // buckets come in ascending order.
  const std::size_t width = key_views.size();
  warehouse::TupleIndex index(width);
  std::vector<std::uint64_t> key(width);
  std::vector<std::uint32_t> cell_row;    // per selected cell
  std::vector<std::uint32_t> cell_tuple;  // per selected cell
  std::vector<std::uint32_t> entries;     // per tuple
  const std::size_t nrows = empty ? 0 : t.rows();
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::int64_t b = bucket[r];
    if (plan.has_lo && b < plan.d_lo) continue;
    if (plan.has_hi && b + grain - 1 > plan.d_hi) continue;
    bool pass = true;
    for (const auto& [codes, code] : dim_tests) {
      if (codes[r] != code) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (std::size_t k = 0; k < width; ++k) {
      const KeyView& v = key_views[k];
      key[k] = v.codes != nullptr
                   ? static_cast<std::uint32_t>(v.codes[r])
                   : static_cast<std::uint64_t>(warehouse::floor_div(b, v.grain) * v.grain *
                                                common::kDay);
    }
    const std::uint32_t tuple = index.insert(key.data());
    if (tuple == entries.size()) {
      entries.push_back(0);
      p.rank.push_back(min_jid[r]);
    }
    p.rank[tuple] = std::min(p.rank[tuple], min_jid[r]);
    ++entries[tuple];
    cell_row.push_back(static_cast<std::uint32_t>(r));
    cell_tuple.push_back(tuple);
  }

  // Key columns: dims through their dictionaries, bucket starts as int64.
  const std::size_t ntuples = entries.size();
  for (std::size_t k = 0; k < width; ++k) {
    std::vector<std::uint64_t> words(ntuples);
    for (std::uint32_t i = 0; i < ntuples; ++i) words[i] = index.key(i)[k];
    const warehouse::Column* dim = key_views[k].col;
    (k < plan.group_by.size() ? p.group : p.extra)
        .push_back(dim != nullptr
                       ? warehouse::partial::key_column(*dim, std::move(words))
                       : warehouse::partial::KeyColumn{warehouse::ColType::kInt64, {}, {},
                                                       std::move(words)});
  }

  // Each tuple's cells, in bucket order: a stable counting scatter by tuple.
  p.day_end.resize(ntuples);
  std::vector<std::uint32_t> cursor(ntuples);
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < ntuples; ++i) {
    cursor[i] = at;
    at += entries[i];
    p.day_end[i] = at;
  }
  p.days.resize(cell_row.size());
  p.states.resize(cell_row.size() * naggs);
  for (std::size_t c = 0; c < cell_row.size(); ++c) {
    const std::uint32_t r = cell_row[c];
    const std::uint32_t e = cursor[cell_tuple[c]]++;
    p.days[e] = bucket[r];
    warehouse::AggState* s = p.states.data() + std::size_t{e} * naggs;
    for (std::size_t a = 0; a < naggs; ++a) {
      s[a].n = rows_col[r];
      if (plan.aggs[a].kind != warehouse::AggKind::kCount) {
        s[a].sum = agg_cols[a].sum[r];
        s[a].mn = agg_cols[a].mn[r];
        s[a].mx = agg_cols[a].mx[r];
        if (plan.aggs[a].kind == warehouse::AggKind::kWeightedMean) {
          s[a].wsum = node_hours_sum[r];
          s[a].wvsum = agg_cols[a].wv[r];
        }
      }
    }
  }

  p.stats.rows_scanned = nrows;  // 0 on the dim-literal dictionary miss
  p.stats.rows_matched = cell_row.size();
  warehouse::partial::fold_to(p, level);
  return msg;
}

wire::PartialMsg ShardExecutor::execute(const service::QuerySpec& spec,
                                        std::uint32_t deadline_ms,
                                        const std::string& rank_column,
                                        warehouse::partial::Level level) const {
  if (spec.table != jobs_.name()) {
    throw common::InvalidArgument("shard " + name_ + " does not host table '" + spec.table +
                                  "'");
  }
  common::CancelToken token;
  if (deadline_ms > 0) {
    token.set_deadline(common::CancelToken::Clock::now() +
                       std::chrono::milliseconds(deadline_ms));
  }

  if (rollups_ != nullptr && warehouse::rollup::enabled()) {
    if (const auto plan = warehouse::rollup::subsume(service::to_rollup_input(spec))) {
      return rollup_partial(*plan, level);
    }
  }

  warehouse::Query q = service::compile(spec, jobs_);
  q.cancel_token(&token);
  wire::PartialMsg msg;
  msg.rollup_served = false;
  msg.partial = q.run_partial(rank_column);
  warehouse::partial::fold_to(msg.partial, level);
  return msg;
}

std::string ShardExecutor::serve(std::string_view request) const {
  bool timeout = false;
  std::string error;
  try {
    std::size_t offset = 0;
    const wire::Frame hello = wire::read_frame(request, offset);
    if (hello.type != wire::MsgType::kHello) {
      throw common::ParseError("wire: expected hello frame, got type " +
                               std::to_string(static_cast<int>(hello.type)));
    }
    (void)wire::unpack_hello(hello.payload);
    const wire::Frame query = wire::read_frame(request, offset);
    if (query.type != wire::MsgType::kQuery) {
      throw common::ParseError("wire: expected query frame, got type " +
                               std::to_string(static_cast<int>(query.type)));
    }
    if (offset != request.size()) {
      throw common::ParseError("wire: trailing bytes after query conversation");
    }
    const wire::QueryMsg msg = wire::unpack_query(query.payload);
    const std::string partial =
        wire::pack_partial(execute(msg.spec, msg.deadline_ms, msg.rank_column, msg.level));
    std::string response;
    wire::append_frame(response, wire::MsgType::kHelloAck, wire::pack_hello_ack({name_}));
    wire::append_frame(response, wire::MsgType::kPartial, partial);
    return response;
  } catch (const common::Cancelled& e) {
    timeout = true;
    error = e.what();
  } catch (const std::exception& e) {
    error = e.what();
  }
  return wire::frame(wire::MsgType::kHelloAck, wire::pack_hello_ack({name_})) +
         wire::frame(wire::MsgType::kError, wire::pack_error({error, timeout}));
}

}  // namespace supremm::federation
