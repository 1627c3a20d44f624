// The benchmark workloads; README.md has the why of each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "etl/job_summary.h"
#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
};

[[nodiscard]] Result run_adhoc(const Options& opt);
[[nodiscard]] Result run_federated(const Options& opt);
[[nodiscard]] Result run_ingest(const Options& opt);

/// Emit every per-layer metric name not yet reported with value 0: the
/// workload does not exercise that layer.
void fill_unused_layers(Result& r);

/// Replay `texts` (jobs-table queries and jobs-realm reports), `reps` times
/// each, through the public entry points against the service's view of
/// `jobs`, and add the local per-layer metrics (service.parse_us,
/// rollup.serve_us, query.*, xdmod.report_ms) from the spans left in `tr`.
void replay_local_layers(Result& r, const std::vector<supremm::etl::JobSummary>& jobs,
                         const std::vector<std::string>& texts, int reps, Tracer& tr);

}  // namespace perfbench
