#include "population.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/time.h"
#include "facility/apps.h"

namespace perfbench {

namespace {

using supremm::common::kDay;
using supremm::common::kHour;
using supremm::common::RngStream;
using supremm::common::strprintf;

constexpr std::size_t kUsers = 1000;
constexpr std::size_t kProjectsPerScience = 40;
constexpr double kGflopsPerNode = 16 * 9.19;  // Ranger node: 16 cores x 9.19 GF

const std::vector<std::string> kClusters = {"ranger", "lonestar4", "longhorn"};
const std::vector<double> kClusterWeights = {0.55, 0.30, 0.15};

struct UserProfile {
  std::vector<std::size_t> apps;  // catalogue indices
  std::vector<double> app_weights;
  std::string science;
  std::string project;
  std::size_t home = 0;
  std::size_t second = 0;
};

std::int64_t pick(RngStream& g, std::int64_t lo, std::int64_t hi) { return g.uniform_int(lo, hi); }

/// Day index d's (lo, hi) `end` bounds: day d holds end in (d*86400, (d+1)*86400].
std::string end_window(std::int64_t first_day, std::int64_t last_day) {
  return strprintf("end between %lld and %lld", static_cast<long long>(first_day * kDay + 1),
                   static_cast<long long>((last_day + 1) * kDay));
}

const std::vector<std::string> kGrains = {"day", "week", "month", "quarter"};

const std::vector<std::string> kSeriesAggs = {
    "count(),sum(node_hours)",
    "sum(node_hours),wmean(cpu_idle,node_hours)",
    "sum(node_hours),mean(cpu_flops_gf_node),max(mem_used_max_gb)",
    "count(),wmean(mem_used_gb,node_hours),max(nodes)",
};

const std::vector<std::string> kBreakdownKeys = {"app", "cluster,month", "app,quarter", "user"};

/// Variants of each federated panel template: a multiple of the 4 grains,
/// key lists and aggregate lists and of the 3 clusters.
constexpr std::size_t kVariants = 12;

}  // namespace

std::size_t deck_pick(const std::vector<int>& counts, std::uint64_t seed, const char* stream,
                      std::uint64_t index) {
  std::vector<std::size_t> cards;
  for (std::size_t t = 0; t < counts.size(); ++t) cards.insert(cards.end(), counts[t], t);
  RngStream g(seed, stream, index / cards.size());
  for (std::size_t i = cards.size() - 1; i > 0; --i) {
    std::swap(cards[i], cards[static_cast<std::size_t>(pick(g, 0, static_cast<std::int64_t>(i)))]);
  }
  return cards[index % cards.size()];
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::draw(RngStream& g) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), g.uniform());
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

Population make_population(std::uint64_t seed, std::size_t rows) {
  namespace facility = supremm::facility;
  Population pop;
  std::vector<facility::AppSignature> cat = facility::standard_catalogue();
  std::stable_sort(cat.begin(), cat.end(),
                   [](const auto& a, const auto& b) { return a.popularity > b.popularity; });
  std::vector<double> popularity;
  for (const auto& a : cat) {
    pop.apps.push_back(a.name);
    popularity.push_back(a.popularity);
  }
  pop.clusters = kClusters;

  std::vector<UserProfile> users(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    RngStream g(seed, "perfbench.user", u);
    UserProfile& p = users[u];
    // The seed picks which apps and clusters a user works with; how many is
    // fixed by rank, so seeds vary the literals but not the size of the
    // realm (its rollup cell count).
    const std::size_t napps = 1 + u % 3;
    while (p.apps.size() < napps) {
      const std::size_t a = g.weighted_index(popularity);
      if (std::find(p.apps.begin(), p.apps.end(), a) != p.apps.end()) continue;
      p.apps.push_back(a);
      p.app_weights.push_back(p.apps.size() == 1 ? 4.0 : 1.0);
    }
    const facility::Science sci = cat[p.apps.front()].science;
    p.science = std::string(facility::science_name(sci));
    p.project = strprintf("TG-%c%c%03lld", p.science[0], p.science[1],
                          static_cast<long long>(pick(g, 0, kProjectsPerScience - 1)));
    p.home = g.weighted_index(kClusterWeights);
    do {
      p.second = g.weighted_index(kClusterWeights);
    } while (p.second == p.home);
    pop.users.push_back(strprintf("u%04zu", u));
  }

  const Zipf activity(kUsers, 1.05);
  const double submit_span = static_cast<double>((kSpanDays - 3) * kDay);
  pop.jobs.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    RngStream g(seed, "perfbench.job", r);
    supremm::etl::JobSummary j;
    j.id = static_cast<supremm::facility::JobId>(r + 1);
    const std::size_t u = activity.draw(g);
    const UserProfile& p = users[u];
    const facility::AppSignature& app = cat[p.apps[g.weighted_index(p.app_weights)]];
    j.user = pop.users[u];
    j.app = app.name;
    j.science = p.science;
    j.project = p.project;
    j.cluster = kClusters[g.chance(0.7) ? p.home : p.second];
    // Ids follow submission order, so `end` correlates with the row order
    // (zone maps prune end windows) without being sorted by it.
    j.submit = static_cast<std::int64_t>((static_cast<double>(r) + g.uniform()) * submit_span /
                                         static_cast<double>(rows));
    j.start = j.submit + static_cast<std::int64_t>(g.exponential(1.5 * kHour));
    const double runtime =
        std::clamp(g.lognormal(std::log(3.0 * kHour), 1.0), 600.0, 48.0 * kHour);
    j.end = j.start + static_cast<std::int64_t>(runtime);
    j.nodes = static_cast<std::size_t>(
        std::clamp(std::round(app.nodes.draw(g)), 1.0, std::min(app.max_nodes, 256.0)));
    j.cores = j.nodes * 16;
    j.node_hours = static_cast<double>(j.nodes) * runtime / static_cast<double>(kHour);
    j.failed = g.chance(app.failure_prob) ? 1 : 0;
    j.exit_status = j.failed != 0 || g.chance(0.03) ? 1 : 0;
    j.samples = static_cast<std::size_t>(runtime / 600.0) + 1;
    j.flops_valid = g.chance(0.95);
    j.cpu_idle = std::clamp(app.idle_frac.draw(g), 0.0, 1.0);
    j.cpu_system = std::clamp(app.sys_frac * g.uniform(0.5, 1.5), 0.0, 1.0 - j.cpu_idle);
    j.cpu_user = 1.0 - j.cpu_idle - j.cpu_system;
    j.cpu_flops_gf_node = app.flops_frac.draw(g) * kGflopsPerNode;
    j.mem_used_gb = std::min(app.mem_per_node_gb.draw(g), 32.0);
    j.mem_used_max_gb = std::min(j.mem_used_gb * g.uniform(1.0, 1.4), 32.0);
    j.io_scratch_write_mb_s = app.scratch_write_mb_s.draw(g);
    j.io_work_write_mb_s = app.work_write_mb_s.draw(g);
    j.io_scratch_read_mb_s = app.scratch_read_mb_s.draw(g);
    j.net_ib_tx_mb_s = app.ib_tx_mb_s.draw(g);
    j.net_ib_rx_mb_s = j.net_ib_tx_mb_s * g.uniform(0.8, 1.2);
    j.net_lnet_tx_mb_s = j.io_scratch_write_mb_s + j.io_work_write_mb_s;
    j.net_lnet_rx_mb_s = j.io_scratch_read_mb_s;
    j.swap_mb_s = g.chance(0.02) ? g.exponential(5.0) : 0.0;
    j.load_mean = 16.0 * j.cpu_user;
    pop.jobs.push_back(std::move(j));
  }
  return pop;
}

std::string adhoc_request(std::uint64_t seed, std::uint64_t index) {
  RngStream g(seed, "perfbench.adhoc", index);
  std::string where;
  std::string rest;
  // Five shapes, equally often; per shape one full-history scan to two
  // one-week windows (README.md: an unverified assumption).
  const std::size_t card =
      deck_pick({1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, seed, "perfbench.adhoc.deck", index);
  switch (card / 2) {
    case 0:
      where = strprintf("cpu_idle >= %.9g", g.uniform(0.2, 0.9));
      rest = "group user agg count(),sum(node_hours),wmean(cpu_idle,cores)";
      break;
    case 1:
      where = strprintf("cpu_flops_gf_node <= %.9g", g.uniform(1.0, 20.0));
      rest = "group app agg count(),mean(cpu_flops_gf_node),wmean(cpu_idle,cores)";
      break;
    case 2:
      where = strprintf("mem_used_max_gb >= %.9g", g.uniform(2.0, 24.0));
      rest = "group science agg count(),max(mem_used_max_gb),mean(mem_used_gb)";
      break;
    case 3: {
      const double lo = g.uniform(0.0, 0.6);
      where = strprintf("cpu_idle between %.9g and %.9g", lo, lo + g.uniform(0.05, 0.4));
      rest = "group project agg sum(node_hours),count(),mean(load_mean)";
      break;
    }
    default:
      where = strprintf("mem_used_max_gb >= %.9g", g.uniform(4.0, 30.0));
      rest = "group science,cluster agg wmean(mem_used_max_gb,cores),count()";
      break;
  }
  if (card % 2 == 1) {
    // A one-week window at an arbitrary second: zone maps prune most chunks,
    // and the cut never aligns with a rollup day.
    const std::int64_t lo = pick(g, 0, (kSpanDays - 7) * kDay);
    where += strprintf(" and end >= %lld and end <= %lld", static_cast<long long>(lo),
                       static_cast<long long>(lo + 7 * kDay));
  }
  return "query jobs where " + where + " " + rest;
}

std::vector<std::string> federated_panels(const Population& pop, std::uint64_t seed) {
  std::vector<std::string> panels;
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < kVariants; ++i) {
      const std::uint64_t index = t * kVariants + i;
      RngStream g(seed, "perfbench.federated", index);
      const std::string& grain = kGrains[i % kGrains.size()];
      const std::string& cluster = pop.clusters[i % pop.clusters.size()];
      const std::string& aggs =
          kSeriesAggs[deck_pick(std::vector<int>(kSeriesAggs.size(), 1), seed,
                                "perfbench.federated.aggs", index)];
      switch (t) {
        case 0:  // facility-wide series
          panels.push_back(strprintf("query jobs group %s agg %s", grain.c_str(), aggs.c_str()));
          break;
        case 1:  // breakdowns
          panels.push_back(strprintf("query jobs group %s agg %s",
                                     kBreakdownKeys[i % kBreakdownKeys.size()].c_str(),
                                     aggs.c_str()));
          break;
        case 2:  // one cluster: the catalog prunes the other shards
          panels.push_back(strprintf("query jobs where cluster = \"%s\" group %s agg %s",
                                     cluster.c_str(), grain.c_str(), aggs.c_str()));
          break;
        default: {  // the last 7 or 28 days up to one of the last 6 week edges
          const std::int64_t last = kSpanDays - 1 - 7 * pick(g, 0, 5);
          const std::int64_t len = (i / 2) % 2 == 0 ? 7 : 28;
          std::string where = end_window(last - len + 1, last);
          if (i % 2 == 1) where += strprintf(" and cluster = \"%s\"", cluster.c_str());
          panels.push_back(
              strprintf("query jobs where %s group app agg %s", where.c_str(), aggs.c_str()));
          break;
        }
      }
    }
  }
  RngStream g(seed, "perfbench.federated.order", 0);
  for (std::size_t i = panels.size() - 1; i > 0; --i) {
    std::swap(panels[i], panels[static_cast<std::size_t>(pick(g, 0, static_cast<std::int64_t>(i)))]);
  }
  return panels;
}

}  // namespace perfbench
