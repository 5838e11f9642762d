// Shared plumbing of the benchmark harness: arguments, clocks, order
// statistics, the result line, peak-RSS sampling, and the lineitem table
// both serving workloads and the compress workload build.
//
// The harness measures the library only from outside: it times calls to
// public functions and reads telemetry the library already exports
// (request traces, BlockCache stats, obs::Registry counters).

#ifndef CORRA_PERFBENCH_BENCH_H_
#define CORRA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/corra_compressor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Where a run writes its files; removed at exit.
};

double SecondsSince(Clock::time_point start);
uint64_t NanosSince(Clock::time_point start);

/// Independent seed for generator stream `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latency distribution in fixed memory: log-linear buckets, 128 per power
/// of two (under 0.8% relative error), so the harness's own footprint does
/// not grow with the number of requests a run completes.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// Interpolated quantile in microseconds (q in [0, 1]); 0 when empty.
  double QuantileUs(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Sets the kernel's resident-set high-water mark (VmHWM) to the current
/// RSS, so a later PeakRssMb() covers only what ran after this call.
bool ResetPeakRss();
/// VmHWM of this process in MiB (0 if unavailable).
double PeakRssMb();

/// Collects one run's outcome and renders the harness's result line.
class Report {
 public:
  /// Pre-registers every metric of the run's kind (end-to-end or
  /// per-layer) at 0 so the line always names the full set; workloads
  /// overwrite what they measure.
  explicit Report(bool trace);

  void Set(std::string_view name, double value);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations (errors or wrong outputs); logs the
  /// first one's reason.
  void Fail(const std::string& why, uint64_t n = 1);
  /// A whole-run check that is not an operation (e.g. determinism).
  void CheckFailed(const std::string& why);

  bool correct() const { return failed_ == 0 && checks_ok_; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t logged_ = 0;  // Fail() calls whose reason was printed.
  bool checks_ok_ = true;
};

/// File size in bytes (0 if it cannot be read).
uint64_t FileBytes(const std::string& path);

/// The Table 2 Corra plan for lineitem (orderdate, shipdate, commitdate,
/// receiptdate): commitdate and receiptdate Corra-Diff on shipdate.
corra::CompressionPlan LineitemPlan();

inline constexpr size_t kShipCol = 1;
inline constexpr size_t kCommitCol = 2;
inline constexpr size_t kReceiptCol = 3;

// The workloads (compress_workload.cc, serve_workloads.cc). Each fills
// `report` with the end-to-end metrics, or with the per-layer metrics
// when args.trace is set.
void RunCompress(const Args& args, Report* report);
void RunPointHot(const Args& args, Report* report);
void RunScanCold(const Args& args, Report* report);

}  // namespace perfbench

#endif  // CORRA_PERFBENCH_BENCH_H_
