// Shared plumbing of the end-to-end benchmark: run options, the metric
// sink that becomes the final JSON line, quantiles and process counters.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for spills, snapshots and the trace file; inside
  /// the checkout, created and removed by run.py.
  std::string work_dir;
  /// Where the traced run writes its spans (JSON).
  std::string trace_file;
};

/// Ordered name -> (value, unit) list printed as the "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// What one workload run hands back to main().
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Seconds on a monotonic clock since an arbitrary process-wide origin.
double NowSeconds();

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMib();
/// User + system CPU seconds this process has consumed.
double ProcessCpuSeconds();

/// Prints a diagnostic line to stderr (stdout is reserved for the result).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
