#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

int64_t Tracer::Record(const std::string& name, const std::string& layer,
                       double start_s, double end_s, int64_t parent,
                       int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::map<std::string, double> Tracer::SelfSeconds(double begin_s,
                                                  double end_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_cover(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.start_s < begin_s || s.end_s > end_s) continue;
    double own = (s.end_s - s.start_s) - child_cover[static_cast<size_t>(s.id)];
    self[s.layer] += std::max(0.0, own);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"layer\": \"%s\", \"start_us\": %.1f, "
                 "\"end_us\": %.1f}%s\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 s.layer.c_str(), s.start_s * 1e6, s.end_s * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

const char* StageLayer(ver::PipelineStage stage) {
  switch (stage) {
    case ver::PipelineStage::kMaterialization:
      return "engine";
    case ver::PipelineStage::kVdIo:
      return "api";
    default:
      return "core";
  }
}

void RequestObserver::NoteEvent(double now) {
  if (first_event_s_ < 0) first_event_s_ = now;
}

void RequestObserver::OnStageStarted(ver::PipelineStage stage) {
  double now = NowSeconds();
  NoteEvent(now);
  stages_.push_back(StageEvent{stage, now, now});
}

void RequestObserver::OnStageFinished(ver::PipelineStage stage,
                                      double /*elapsed_s*/) {
  double now = NowSeconds();
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    if (it->stage == stage) {
      it->end_s = now;
      break;
    }
  }
}

void RequestObserver::OnViewDelivered(const ver::View& /*view*/,
                                      int /*index*/, double /*elapsed_s*/) {
  double now = NowSeconds();
  NoteEvent(now);
  if (first_view_s_ < 0) first_view_s_ = now;
}

void RequestObserver::OnFinished(const ver::Status& /*status*/) {
  double now = NowSeconds();
  NoteEvent(now);
  finished_s_ = now;
}

double RequestObserver::ranking_s() const {
  for (const StageEvent& e : stages_) {
    if (e.stage == ver::PipelineStage::kRanking) return e.end_s - e.start_s;
  }
  return 0;
}

void RequestObserver::EmitStageSpans(Tracer* tracer, int64_t parent,
                                     int64_t request) const {
  for (const StageEvent& e : stages_) {
    tracer->Record(ver::PipelineStageToString(e.stage), StageLayer(e.stage),
                   e.start_s, e.end_s, parent, request);
  }
}

}  // namespace perfbench
