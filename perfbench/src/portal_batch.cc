#include <utility>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "checks.h"
#include "lakes.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kScale = 2;
/// Every this-many requests of the first round is kept for the checks
/// (prime to 3, so all noise levels are sampled).
constexpr size_t kCheckEvery = 17;

}  // namespace

RunOutcome RunPortalBatch(const RunOptions& options) {
  RunOutcome out;
  Tracer tracer(options.trace);
  ver::GeneratedDataset lake = MakePortalLake(kScale);
  std::vector<RequestSpec> requests = PortalRequests(lake, options.seed);

  // Views stay in memory: spilling them as CSV into the checkout made the
  // MATERIALIZER and VD-IO times swing several-fold between identical runs
  // on a shared disk, which no bound could hold.
  ver::VerConfig config;

  // Set-up is the index build, the first in this process: cold.
  double build_begin = NowSeconds();
  ver::Ver ver(&lake.repo, config,
               ver::DiscoveryEngine::Build(lake.repo, config.discovery));
  double build_end = NowSeconds();
  double setup_s = build_end - build_begin;
  tracer.Record("Build", "discovery", build_begin, build_end, -1, -1);

  uint64_t scatter_before = ScatterQueries(ver.engine());
  LoopOutcome loop = RunClosedLoop(ver, requests, /*stop_after=*/0,
                                   kCheckEvery, options, &tracer);
  uint64_t scatter = ScatterQueries(ver.engine()) - scatter_before;
  out.attempted = loop.attempted;
  out.failed = loop.failed;

  // Checks: independent recomputation on the kept outputs, a StopAfter(3)
  // rerun of each as a prefix of the kept full run, and a rerun of each
  // that must give the same result.
  CheckInputs checks;
  checks.program_repo = &lake.repo;
  checks.lake = &lake.repo;
  std::vector<ver::DiscoveryResponse> streamed;
  streamed.reserve(loop.kept.size());
  for (const auto& [index, response] : loop.kept) {
    const RequestSpec& spec = requests[index];
    checks.results.push_back(CheckedResult{
        &response.result, spec.gt_columns,
        spec.noise == ver::NoiseLevel::kZero});
    streamed.push_back(ver.Execute(
        ver::DiscoveryRequest::ForQuery(spec.query).StopAfter(3)));
    checks.prefixes.emplace_back(&streamed.back().result, &response.result);
    ver::DiscoveryResponse again =
        ver.Execute(ver::DiscoveryRequest::ForQuery(spec.query));
    checks.same_results.emplace_back(Fingerprint(response.result),
                                     Fingerprint(again.result));
  }
  out.correct = RunAllChecks(checks);

  EmitLoopMetrics(options, ver, requests, loop, scatter, setup_s, &tracer,
                  &out.metrics);
  if (options.trace) out.metrics.Set("discovery.build_s", setup_s, "s");
  return out;
}

}  // namespace perfbench
