// Per-request records, the per-layer accumulator and the code that turns
// them into the end-to-end and per-layer metrics every workload reports.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/discovery_response.h"
#include "common.h"
#include "core/ver.h"
#include "lakes.h"
#include "trace.h"

namespace perfbench {

/// What a client saw for one request.
struct RequestRecord {
  double latency_s = 0;
  /// Submit to the first OnViewDelivered; negative when no view came.
  double first_view_s = -1;
  /// When the response arrived (NowSeconds()).
  double done_s = 0;
};

/// Per-layer counters over the requests that actually ran the pipeline
/// (cache hits and coalesced serves are excluded).
class LayerStats {
 public:
  /// `run_s` is the wall time of the Execute call (DiscoveryResponse::
  /// total_s, or ServedResult::run_s under the server). `streamed` marks a
  /// StopAfter request; `early_stop` whether it stopped with candidates
  /// left.
  void Add(const ver::QueryResult& result, const RequestObserver& observer,
           double run_s, bool streamed, bool early_stop);

  /// Sets every engine/core/api per-layer metric.
  void Emit(Metrics* metrics) const;

 private:
  std::vector<double> cs_ms_, jgs_ms_, m_ms_, vdio_ms_, fourc_ms_,
      fourc_hash_ms_, ranking_ms_, unattributed_ms_;
  double cs_candidates_ = 0, join_graphs_ = 0, jgs_candidates_ = 0,
         views_in_ = 0, survivors_ = 0, m_attempted_ = 0, m_kept_ = 0,
         m_failures_ = 0, rows_out_ = 0, stream_candidates_ = 0;
  int64_t requests_ = 0, streamed_ = 0, early_stops_ = 0;
};

/// What one closed-loop client produced over its measured phase.
struct LoopOutcome {
  std::vector<RequestRecord> records;
  /// Every check_every-th response of the first round, with its index in
  /// the request list, kept for the checks.
  std::vector<std::pair<size_t, ver::DiscoveryResponse>> kept;
  /// Filled only under --trace 1.
  LayerStats layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  double begin_s = 0;
  double end_s = 0;
  double cpu_s = 0;
  /// VmHWM at the end of the phase, before any check runs.
  double peak_rss_mib = 0;
};

/// One client calling `ver.Execute` back to back in whole rounds over
/// `requests` until options.seconds have passed and at least kMinRequests
/// requests were sent. `stop_after` > 0 sends StopAfter(stop_after)
/// requests. Under options.trace each request adds its per-layer counters
/// and its Execute and stage spans.
LoopOutcome RunClosedLoop(const ver::Ver& ver,
                          const std::vector<RequestSpec>& requests,
                          int stop_after, size_t check_every,
                          const RunOptions& options, Tracer* tracer);

/// Sets the six end-to-end metrics. The measured phase began at `begin_s`;
/// its records, in completion order, are cut into windows of `window`
/// requests (a trailing partial window joins the one before it), and the
/// latency quantiles, first-view median and throughput are each the median
/// of their per-window values, so a burst of load from outside the
/// process that hits one window does not move them. `setup_s` is the
/// process's first (cold) index build or snapshot load, `peak_rss_mib` read
/// at the phase's end.
void EmitEndToEnd(std::vector<RequestRecord> records, size_t window,
                  double begin_s, double setup_s, double peak_rss_mib,
                  Metrics* metrics);

/// Zero-fills every per-layer metric, so each workload reports the full
/// set; layers a workload bypasses stay 0.
void EmitLayerDefaults(Metrics* metrics);

/// Sets what every traced run reports besides the layer counters: CPU per
/// request, per-layer self times, the traced end-to-end latency and
/// throughput (the untraced run's values minus these are the tracing
/// overhead), and writes the spans to options.trace_file.
void EmitTracedCommon(const RunOptions& options,
                      const std::vector<RequestRecord>& records,
                      size_t window, double begin_s, double end_s,
                      double cpu_s, const Tracer& tracer, Metrics* metrics);

/// The metrics of a closed-loop portal run, windows of one round each:
/// the end-to-end set, or under --trace 1 the layer defaults, `loop`'s
/// layer counters, the shard scatters per request, the SEARCH-KEYWORD
/// replay over `requests` and the traced common part. The caller adds its
/// own layer figures afterwards.
void EmitLoopMetrics(const RunOptions& options, const ver::Ver& ver,
                     const std::vector<RequestSpec>& requests,
                     const LoopOutcome& loop, uint64_t scatter_queries,
                     double setup_s, Tracer* tracer, Metrics* metrics);

/// Sum of the engine's per-shard scatter counters.
uint64_t ScatterQueries(const ver::DiscoveryEngine& engine);

/// Median wall time of one SEARCH-KEYWORD call, replayed for every example
/// value of every request (spans under the discovery layer).
double ReplaySearchKeywordUs(const ver::DiscoveryEngine& engine,
                             const std::vector<ver::ExampleQuery>& queries,
                             Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
