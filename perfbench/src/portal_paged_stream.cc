#include <algorithm>
#include <filesystem>
#include <memory>
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

constexpr int kShards = 4;
/// Half of portal_batch's scale: with StopAfter, queries whose candidates
/// yield fewer than k survivors re-distill after every candidate, so the
/// slow tail grows with the square of the candidate count.
constexpr int kScale = 1;
/// StopAfter(k): some queries stop early, others have fewer than k
/// surviving views and run every candidate.
constexpr int kStopAfter = 3;
/// Pool budget as a share of the snapshot file.
constexpr double kBudgetShare = 0.1;
/// Every this-many requests of the first round is kept for the checks
/// (prime to 3, so all noise levels are sampled).
constexpr size_t kCheckEvery = 7;

std::string SnapshotPath(const RunOptions& o) {
  return o.work_dir + "/portal.versnap";
}
std::string RequestsPath(const RunOptions& o) {
  return o.work_dir + "/requests.txt";
}

}  // namespace

int PreparePagedSnapshot(const RunOptions& options) {
  ver::GeneratedDataset lake = MakePortalLake(kScale);
  ver::DiscoveryOptions discovery;
  discovery.num_shards = kShards;
  discovery.parallelism = kShards;
  std::unique_ptr<ver::DiscoveryEngine> engine =
      ver::DiscoveryEngine::Build(lake.repo, discovery);
  ver::Status saved = engine->Save(SnapshotPath(options));
  if (saved.ok()) {
    saved = WriteRequests(RequestsPath(options),
                          PortalRequests(lake, options.seed));
  }
  if (!saved.ok()) {
    Log("prepare failed: %s", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

RunOutcome RunPortalPagedStream(const RunOptions& options) {
  RunOutcome out;
  Tracer tracer(options.trace);
  std::vector<RequestSpec> requests;
  ver::Status read = ReadRequests(RequestsPath(options), &requests);
  if (!read.ok()) {
    Log("%s", read.ToString().c_str());
    std::exit(1);
  }
  const std::string path = SnapshotPath(options);
  std::error_code ec;
  const uint64_t snapshot_bytes = std::filesystem::file_size(path, ec);

  // Set-up is the cold start, the first in this process: repository and
  // engine both paged from the snapshot under one pool budget. The
  // generator's lake never enters this process before the checks.
  double load_begin = NowSeconds();
  ver::PagingOptions paging;
  paging.enabled = true;
  paging.memory_budget_bytes =
      static_cast<uint64_t>(kBudgetShare * static_cast<double>(snapshot_bytes));
  ver::Result<ver::TableRepository> repo =
      ver::DiscoveryEngine::LoadRepository(path, paging);
  ver::Result<std::unique_ptr<ver::DiscoveryEngine>> engine =
      repo.ok() ? ver::DiscoveryEngine::Load(repo.value(), path, paging)
                : ver::Result<std::unique_ptr<ver::DiscoveryEngine>>(
                      repo.status());
  if (!engine.ok() || !engine.value()->paged()) {
    Log("paged cold start failed: %s", engine.status().ToString().c_str());
    std::exit(1);
  }
  std::shared_ptr<ver::PagerRuntime> pager = engine.value()->pager();
  ver::Ver ver(&repo.value(), ver::VerConfig(), std::move(engine).value());
  double load_end = NowSeconds();
  double setup_s = load_end - load_begin;
  tracer.Record("LoadRepository+Load", "discovery", load_begin, load_end, -1,
                -1);

  ver::BufferPoolStats pool_before = pager->pool_stats();
  uint64_t scatter_before = ScatterQueries(ver.engine());
  LoopOutcome loop =
      RunClosedLoop(ver, requests, kStopAfter, kCheckEvery, options, &tracer);
  ver::BufferPoolStats pool_after = pager->pool_stats();
  uint64_t scatter = ScatterQueries(ver.engine()) - scatter_before;
  out.attempted = loop.attempted;
  out.failed = loop.failed;

  // Checks: each kept StopAfter response must be a prefix of the same
  // request run to completion on the paged engine; that full run must
  // equal a 1-shard resident engine built over the regenerated lake; the
  // independent checks compare against the regenerated lake's tables.
  ver::GeneratedDataset lake = MakePortalLake(kScale);
  ver::Ver resident(&lake.repo, ver::VerConfig());
  CheckInputs checks;
  checks.program_repo = &repo.value();
  checks.lake = &lake.repo;
  std::vector<ver::DiscoveryResponse> full;
  full.reserve(loop.kept.size());
  for (const auto& [index, response] : loop.kept) {
    const RequestSpec& spec = requests[index];
    full.push_back(ver.Execute(ver::DiscoveryRequest::ForQuery(spec.query)));
    checks.results.push_back(CheckedResult{
        &response.result, spec.gt_columns, false});
    checks.results.push_back(CheckedResult{
        &full.back().result, spec.gt_columns,
        spec.noise == ver::NoiseLevel::kZero});
    checks.prefixes.emplace_back(&response.result, &full.back().result);
    ver::DiscoveryResponse direct =
        resident.Execute(ver::DiscoveryRequest::ForQuery(spec.query));
    checks.same_results.emplace_back(Fingerprint(full.back().result),
                                     Fingerprint(direct.result));
  }
  out.correct = RunAllChecks(checks);

  Metrics& m = out.metrics;
  EmitLoopMetrics(options, ver, requests, loop, scatter, setup_s, &tracer, &m);
  if (!options.trace) return out;
  double n = static_cast<double>(std::max<size_t>(loop.records.size(), 1));
  m.Set("discovery.load_s", setup_s, "s");
  m.Set("discovery.snapshot_bytes", static_cast<double>(snapshot_bytes),
        "bytes");
  m.Set("pager.misses",
        static_cast<double>(pool_after.misses - pool_before.misses), "count");
  m.Set("pager.evictions",
        static_cast<double>(pool_after.evictions - pool_before.evictions),
        "count");
  m.Set("pager.touches_per_request",
        static_cast<double>((pool_after.hits + pool_after.misses) -
                            (pool_before.hits + pool_before.misses)) /
            n,
        "count");
  m.Set("pager.peak_resident_bytes",
        static_cast<double>(pool_after.peak_resident_bytes), "bytes");
  m.Set("pager.overcommit",
        static_cast<double>(pool_after.pinned_overcommit -
                            pool_before.pinned_overcommit),
        "count");
  return out;
}

}  // namespace perfbench
