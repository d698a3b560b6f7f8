// In-memory span recording for the traced run, and the per-request
// observer every run attaches (untraced runs need it for the time to the
// first delivered view).
//
// Spans wrap the benchmark's own calls into each layer; nothing inside the
// library is instrumented. Stage spans are rebuilt from QueryObserver
// events after the request finished, so the pipeline thread only appends
// timestamps.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/query_observer.h"

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;   // -1: root
  int64_t request = -1;  // -1: not tied to a request
  std::string name;
  std::string layer;  // src/ module the span's time is charged to
  double start_s = 0;
  double end_s = 0;
};

/// Thread-safe span sink. Disabled tracers record nothing and return -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int64_t Record(const std::string& name, const std::string& layer,
                 double start_s, double end_s, int64_t parent,
                 int64_t request);

  /// Per layer: summed duration of the spans inside [begin_s, end_s]
  /// minus the time their direct children cover, in seconds.
  std::map<std::string, double> SelfSeconds(double begin_s,
                                            double end_s) const;

  /// Writes every span as one JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one request's pipeline events with timestamps from NowSeconds().
class RequestObserver : public ver::QueryObserver {
 public:
  struct StageEvent {
    ver::PipelineStage stage;
    double start_s = 0;
    double end_s = 0;
  };

  void OnStageStarted(ver::PipelineStage stage) override;
  void OnStageFinished(ver::PipelineStage stage, double elapsed_s) override;
  void OnViewDelivered(const ver::View& view, int index,
                       double elapsed_s) override;
  void OnFinished(const ver::Status& status) override;

  /// Absolute time of the first delivered view; negative when none came.
  double first_view_s() const { return first_view_s_; }
  /// Absolute time of the first event of any kind (the pipeline or cache
  /// serve picked the request up) and of OnFinished.
  double first_event_s() const { return first_event_s_; }
  double finished_s() const { return finished_s_; }
  /// Wall seconds of the ranking stage (not part of PipelineTiming).
  double ranking_s() const;

  /// Emits one span per stage under `parent`.
  void EmitStageSpans(Tracer* tracer, int64_t parent, int64_t request) const;

 private:
  void NoteEvent(double now);

  double first_view_s_ = -1;
  double first_event_s_ = -1;
  double finished_s_ = -1;
  std::vector<StageEvent> stages_;
};

/// The src/ module a pipeline stage's time belongs to.
const char* StageLayer(ver::PipelineStage stage);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
