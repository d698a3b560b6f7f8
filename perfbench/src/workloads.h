// The three workloads. Each is a closed loop: a client sends its next
// request only when the previous one returned, in whole rounds over a
// fixed request list, until --seconds have passed and at least
// kMinRequests requests completed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// At least ten requests beyond p95.
constexpr int64_t kMinRequests = 200;

/// Open-Data-like portal, index built in process, one client calling
/// Ver::Execute; every ranked candidate is materialized.
RunOutcome RunPortalBatch(const RunOptions& options);

/// WDC-like lake behind VerServer (default ServingOptions), 4 shards,
/// 2 client threads, per-shard rebuild + hot swap at fixed request counts.
RunOutcome RunWebtablesServed(const RunOptions& options);

/// Builds the portal lake with 4 shards and saves the snapshot plus the
/// request list into the work directory (a separate process, so the
/// measured one never holds the generator's lake).
int PreparePagedSnapshot(const RunOptions& options);

/// Cold start from that snapshot with paging under a budget of a tenth of
/// the file; one client sends streaming StopAfter(3) requests.
RunOutcome RunPortalPagedStream(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
