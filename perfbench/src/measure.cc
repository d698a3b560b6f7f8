#include "measure.h"

#include <algorithm>

#include "api/discovery_request.h"
#include "checks.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Sets self.<layer>_ms: per-request self time of each layer's spans that
/// lie inside [begin_s, end_s].
void EmitSelfTimes(const Tracer& tracer, double begin_s, double end_s,
                   int64_t requests, Metrics* m) {
  std::map<std::string, double> self = tracer.SelfSeconds(begin_s, end_s);
  double n = requests > 0 ? static_cast<double>(requests) : 1;
  for (const char* layer : {"serving", "api", "core", "engine", "discovery"}) {
    m->Set(std::string("self.") + layer + "_ms",
           self.count(layer) ? self[layer] * 1e3 / n : 0, "ms");
  }
}

/// Number of ranked candidates a StopAfter run handed to the materializer:
/// up to and including its last kept view when it stopped early, else all.
int64_t StreamedCandidates(const ver::QueryResult& result, bool early_stop) {
  const auto& candidates = result.search.candidates;
  if (!early_stop || result.views.empty()) {
    return static_cast<int64_t>(candidates.size());
  }
  const ver::View& last = result.views.back();
  std::string want = ViewKey(last.graph, last.projection);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (ViewKey(candidates[i].graph, candidates[i].projection) == want) {
      return static_cast<int64_t>(i) + 1;
    }
  }
  return static_cast<int64_t>(candidates.size());
}

}  // namespace

void LayerStats::Add(const ver::QueryResult& result,
                     const RequestObserver& observer, double run_s,
                     bool streamed, bool early_stop) {
  const ver::PipelineTiming& t = result.timing;
  double ranking_s = observer.ranking_s();
  cs_ms_.push_back(t.column_selection_s * 1e3);
  jgs_ms_.push_back(t.join_graph_search_s * 1e3);
  m_ms_.push_back(t.materialize_s * 1e3);
  vdio_ms_.push_back(t.vd_io_s * 1e3);
  fourc_ms_.push_back(t.four_c_s * 1e3);
  fourc_hash_ms_.push_back(result.distillation.timing.hash_and_c1_s * 1e3);
  ranking_ms_.push_back(ranking_s * 1e3);
  unattributed_ms_.push_back((run_s - t.total_s() - ranking_s) * 1e3);

  for (const ver::ColumnSelectionResult& s : result.selection) {
    cs_candidates_ += static_cast<double>(s.candidates.size());
  }
  join_graphs_ += static_cast<double>(result.search.num_join_graphs);
  jgs_candidates_ += static_cast<double>(result.search.candidates.size());
  views_in_ += static_cast<double>(result.views.size());
  survivors_ += static_cast<double>(result.distillation.surviving.size());
  int64_t attempted =
      streamed ? StreamedCandidates(result, early_stop)
               : static_cast<int64_t>(result.search.candidates.size());
  m_attempted_ += static_cast<double>(attempted);
  m_kept_ += static_cast<double>(result.views.size());
  m_failures_ +=
      static_cast<double>(result.search.num_materialization_failures);
  for (const ver::View& v : result.views) {
    rows_out_ += static_cast<double>(v.table.num_rows());
  }
  if (streamed) {
    ++streamed_;
    stream_candidates_ += static_cast<double>(attempted);
    if (early_stop) ++early_stops_;
  }
  ++requests_;
}

void LayerStats::Emit(Metrics* m) const {
  double n = requests_ > 0 ? static_cast<double>(requests_) : 1;
  m->Set("core.cs_ms", Quantile(cs_ms_, 0.5), "ms");
  m->Set("core.cs_candidates", cs_candidates_ / n, "count");
  m->Set("core.jgs_ms", Quantile(jgs_ms_, 0.5), "ms");
  m->Set("core.jgs_join_graphs", join_graphs_ / n, "count");
  m->Set("core.jgs_candidates", jgs_candidates_ / n, "count");
  m->Set("core.4c_ms", Quantile(fourc_ms_, 0.5), "ms");
  m->Set("core.4c_hash_c1_ms", Quantile(fourc_hash_ms_, 0.5), "ms");
  m->Set("core.4c_views_in", views_in_ / n, "count");
  m->Set("core.4c_survivors", survivors_ / n, "count");
  m->Set("core.ranking_ms", Quantile(ranking_ms_, 0.5), "ms");
  m->Set("engine.m_ms", Quantile(m_ms_, 0.5), "ms");
  m->Set("engine.m_attempted", m_attempted_ / n, "count");
  m->Set("engine.m_kept", m_kept_ / n, "count");
  m->Set("engine.m_kept_ratio", m_attempted_ > 0 ? m_kept_ / m_attempted_ : 0,
         "ratio");
  m->Set("engine.m_failures", m_failures_ / n, "count");
  m->Set("engine.m_rows_out", rows_out_ / n, "count");
  m->Set("api.vdio_ms", Quantile(vdio_ms_, 0.5), "ms");
  m->Set("api.unattributed_ms", Quantile(unattributed_ms_, 0.5), "ms");
  double s = streamed_ > 0 ? static_cast<double>(streamed_) : 1;
  m->Set("api.stream_candidates", stream_candidates_ / s, "count");
  m->Set("api.stream_early_stops", static_cast<double>(early_stops_) / s,
         "ratio");
}

LoopOutcome RunClosedLoop(const ver::Ver& ver,
                          const std::vector<RequestSpec>& requests,
                          int stop_after, size_t check_every,
                          const RunOptions& options, Tracer* tracer) {
  LoopOutcome out;
  double cpu_before = ProcessCpuSeconds();
  out.begin_s = NowSeconds();
  for (int64_t round = 0;; ++round) {
    for (size_t i = 0; i < requests.size(); ++i) {
      ver::DiscoveryRequest request =
          ver::DiscoveryRequest::ForQuery(requests[i].query);
      if (stop_after > 0) request.StopAfter(stop_after);
      RequestObserver observer;
      double t0 = NowSeconds();
      ver::DiscoveryResponse response = ver.Execute(request, &observer);
      double t1 = NowSeconds();
      int64_t request_id = out.attempted++;
      if (!response.status.ok()) {
        ++out.failed;
        Log("request %zu failed: %s", i, response.status.ToString().c_str());
        continue;
      }
      out.records.push_back(RequestRecord{
          t1 - t0,
          observer.first_view_s() >= 0 ? observer.first_view_s() - t0 : -1,
          t1});
      if (options.trace) {
        out.layers.Add(response.result, observer, response.total_s,
                       stop_after > 0, response.early_terminated);
        int64_t span =
            tracer->Record("Execute", "api", t0, t1, -1, request_id);
        observer.EmitStageSpans(tracer, span, request_id);
      }
      if (round == 0 && i % check_every == 0) {
        out.kept.emplace_back(i, std::move(response));
      }
    }
    if (NowSeconds() - out.begin_s >= options.seconds &&
        out.attempted >= kMinRequests) {
      break;
    }
  }
  out.end_s = NowSeconds();
  out.peak_rss_mib = PeakRssMib();
  out.cpu_s = ProcessCpuSeconds() - cpu_before;
  return out;
}

void EmitEndToEnd(std::vector<RequestRecord> records, size_t window,
                  double begin_s, double setup_s, double peak_rss_mib,
                  Metrics* m) {
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.done_s < b.done_s;
            });
  window = std::max<size_t>(window, 1);
  std::vector<double> p50, p95, first_view_p50, qps;
  double window_begin = begin_s;
  for (size_t lo = 0; lo < records.size();) {
    size_t hi = lo + window;
    if (hi + window > records.size()) hi = records.size();
    std::vector<double> latency_ms, first_view_ms;
    for (size_t i = lo; i < hi; ++i) {
      latency_ms.push_back(records[i].latency_s * 1e3);
      if (records[i].first_view_s >= 0) {
        first_view_ms.push_back(records[i].first_view_s * 1e3);
      }
    }
    p50.push_back(Quantile(latency_ms, 0.5));
    p95.push_back(Quantile(latency_ms, 0.95));
    if (!first_view_ms.empty()) {
      first_view_p50.push_back(Quantile(first_view_ms, 0.5));
    }
    double window_end = records[hi - 1].done_s;
    if (window_end > window_begin) {
      qps.push_back(static_cast<double>(hi - lo) / (window_end - window_begin));
    }
    window_begin = window_end;
    lo = hi;
  }
  m->Set("setup_s", setup_s, "s");
  m->Set("latency_p50_ms", Quantile(p50, 0.5), "ms");
  m->Set("latency_p95_ms", Quantile(p95, 0.5), "ms");
  m->Set("throughput_qps", Quantile(qps, 0.5), "1/s");
  m->Set("first_view_p50_ms", Quantile(first_view_p50, 0.5), "ms");
  m->Set("peak_rss_mb", peak_rss_mib, "MiB");
}

void EmitLayerDefaults(Metrics* m) {
  static const char* kMs[] = {
      "core.cs_ms",          "core.jgs_ms",       "core.4c_ms",
      "core.4c_hash_c1_ms",  "core.ranking_ms",   "engine.m_ms",
      "api.vdio_ms",         "api.unattributed_ms",
      "serving.queue_wait_p50_ms", "serving.queue_wait_p95_ms",
      "serving.pipeline_p50_ms",   "proc.cpu_ms_per_request",
      "self.serving_ms",     "self.api_ms",       "self.core_ms",
      "self.engine_ms",      "self.discovery_ms", "trace.latency_p50_ms"};
  static const char* kCounts[] = {
      "discovery.scatter_queries", "core.cs_candidates",
      "core.jgs_join_graphs",      "core.jgs_candidates",
      "core.4c_views_in",          "core.4c_survivors",
      "engine.m_attempted",        "engine.m_kept",
      "engine.m_failures",         "engine.m_rows_out",
      "api.stream_candidates",     "serving.coalesced",
      "serving.executions",        "pager.misses",
      "pager.evictions",           "pager.touches_per_request",
      "pager.overcommit"};
  m->Set("discovery.build_s", 0, "s");
  m->Set("discovery.load_s", 0, "s");
  m->Set("discovery.snapshot_bytes", 0, "bytes");
  m->Set("discovery.search_keyword_us", 0, "us");
  for (const char* name : kMs) m->Set(name, 0, "ms");
  for (const char* name : kCounts) m->Set(name, 0, "count");
  m->Set("engine.m_kept_ratio", 0, "ratio");
  m->Set("api.stream_early_stops", 0, "ratio");
  m->Set("serving.cache_hit_ratio", 0, "ratio");
  m->Set("serving.swap_s", 0, "s");
  m->Set("pager.peak_resident_bytes", 0, "bytes");
  m->Set("trace.throughput_qps", 0, "1/s");
}

void EmitTracedCommon(const RunOptions& options,
                      const std::vector<RequestRecord>& records,
                      size_t window, double begin_s, double end_s,
                      double cpu_s, const Tracer& tracer, Metrics* m) {
  int64_t n = static_cast<int64_t>(records.size());
  m->Set("proc.cpu_ms_per_request",
         n > 0 ? cpu_s * 1e3 / static_cast<double>(n) : 0, "ms");
  EmitSelfTimes(tracer, begin_s, end_s, n, m);
  Metrics traced;
  EmitEndToEnd(records, window, begin_s, 0, 0, &traced);
  for (const auto& [name, value] : traced.entries()) {
    if (name == "latency_p50_ms" || name == "throughput_qps") {
      m->Set("trace." + name, value.first, value.second);
    }
  }
  if (!options.trace_file.empty() && !tracer.WriteJson(options.trace_file)) {
    Log("cannot write trace file %s", options.trace_file.c_str());
  }
}

void EmitLoopMetrics(const RunOptions& options, const ver::Ver& ver,
                     const std::vector<RequestSpec>& requests,
                     const LoopOutcome& loop, uint64_t scatter_queries,
                     double setup_s, Tracer* tracer, Metrics* m) {
  if (!options.trace) {
    EmitEndToEnd(loop.records, requests.size(), loop.begin_s, setup_s,
                 loop.peak_rss_mib, m);
    return;
  }
  EmitLayerDefaults(m);
  loop.layers.Emit(m);
  m->Set("discovery.scatter_queries",
         static_cast<double>(scatter_queries) /
             static_cast<double>(std::max<size_t>(loop.records.size(), 1)),
         "count");
  std::vector<ver::ExampleQuery> queries;
  for (const RequestSpec& r : requests) queries.push_back(r.query);
  m->Set("discovery.search_keyword_us",
         ReplaySearchKeywordUs(ver.engine(), queries, tracer), "us");
  EmitTracedCommon(options, loop.records, requests.size(), loop.begin_s,
                   loop.end_s, loop.cpu_s, *tracer, m);
}

uint64_t ScatterQueries(const ver::DiscoveryEngine& engine) {
  uint64_t total = 0;
  for (const auto& shard : engine.shard_counters()) {
    total += shard.scatter_queries;
  }
  return total;
}

double ReplaySearchKeywordUs(const ver::DiscoveryEngine& engine,
                             const std::vector<ver::ExampleQuery>& queries,
                             Tracer* tracer) {
  std::vector<double> us;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const std::vector<std::string>& column : queries[q].columns) {
      for (const std::string& value : column) {
        double start = NowSeconds();
        std::vector<ver::KeywordHit> hits =
            engine.SearchKeyword(value, ver::KeywordTarget::kValues, false);
        double end = NowSeconds();
        (void)hits;
        tracer->Record("SearchKeyword", "discovery", start, end, -1,
                       static_cast<int64_t>(q));
        us.push_back((end - start) * 1e6);
      }
    }
  }
  return Quantile(us, 0.5);
}

}  // namespace perfbench
