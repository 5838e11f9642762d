#include "bench.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the emitted names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"encode_mrows_per_s", "Mrows/s"},
    {"bytes_per_value", "B/value"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"scan_service.queue_wait_us", "us"},
    {"scan_service.inline_p50_us", "us"},
    {"scan_service.handoff_us", "us"},
    {"scan_service.merge_us", "us"},
    {"coalescer.piggyback_ratio", "ratio"},
    {"coalescer.scatter_us", "us"},
    {"read_ahead.issued_per_op", "count"},
    {"read_ahead.absorbed_ratio", "ratio"},
    {"block_cache.hit_ratio", "ratio"},
    {"block_cache.evictions_per_op", "count"},
    {"block_cache.pin_us", "us"},
    {"storage.fill_us", "us"},
    {"storage.read_block_ms", "ms"},
    {"storage.bytes_read_per_op", "B"},
    {"storage.read_retries", "count"},
    {"storage.write_mb_per_s", "MB/s"},
    {"query.decode_filter_us", "us"},
    {"query.filter_ns_per_row", "ns"},
    {"query.scan_ns_per_row", "ns"},
    {"query.gather_ns_per_row", "ns"},
    {"core.compress_ns_per_row.lineitem", "ns"},
    {"core.compress_ns_per_row.taxi", "ns"},
    {"core.compress_ns_per_row.dmv", "ns"},
    {"core.compress_ns_per_row.ldbc", "ns"},
    {"encoding.select_ns_per_value", "ns"},
    {"encoding.estimate_error_pct", "%"},
    {"core.bytes.lineitem.l_receiptdate", "B"},
    {"core.bytes.lineitem.l_commitdate", "B"},
    {"core.bytes.taxi.dropoff", "B"},
    {"core.bytes.taxi.total_amount", "B"},
    {"core.bytes.dmv.zip_code", "B"},
    {"core.bytes.dmv.city", "B"},
    {"core.bytes.ldbc.ip", "B"},
    {"core.saving_pct.l_receiptdate", "%"},
    {"core.saving_pct.l_commitdate", "%"},
    {"core.saving_pct.dropoff", "%"},
    {"core.saving_pct.total_amount", "%"},
    {"core.saving_pct.zip_code", "%"},
    {"core.saving_pct.city", "%"},
    {"core.saving_pct.ip", "%"},
    {"obs.trace_overhead_pct", "%"},
};

// At most this many failure reasons are printed; the rest only count.
constexpr uint64_t kMaxLoggedFailures = 10;

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Values below 2^kSubBits get a bucket each; above, each power of two is
// split into 2^kSubBits equal buckets.
constexpr int kSubBits = 7;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;

size_t BucketOf(uint64_t ns) {
  if (ns < kSub) {
    return static_cast<size_t>(ns);
  }
  const int exponent = std::bit_width(ns) - 1;
  const int shift = exponent - kSubBits;
  return static_cast<size_t>(kSub * (1 + shift) + ((ns >> shift) - kSub));
}

// [lower, lower + width) of bucket `b`.
std::pair<double, double> BucketRange(size_t b) {
  if (b < kSub) {
    return {static_cast<double>(b), 1.0};
  }
  const int shift = static_cast<int>(b / kSub) - 1;
  const uint64_t lower = (kSub + b % kSub) << shift;
  return {static_cast<double>(lower),
          static_cast<double>(uint64_t{1} << shift)};
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(BucketOf(~uint64_t{0}) + 1) {}

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  // The rank, as Quantile() interpolates it over sorted samples; samples
  // inside one bucket are taken as evenly spread over its range.
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets_[b]);
    if (in_bucket > 0 && rank < before + in_bucket) {
      const auto [lower, width] = BucketRange(b);
      return (lower + width * (rank - before + 0.5) / in_bucket) / 1e3;
    }
    before += in_bucket;
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Report::Report(bool trace) {
  const auto add_all = [this](const auto& defs) {
    for (const MetricDef& def : defs) {
      metrics_.push_back({def.name, def.unit, 0});
    }
  };
  if (trace) {
    add_all(kPerLayer);
  } else {
    add_all(kEndToEnd);
  }
}

void Report::Set(std::string_view name, double value) {
  for (Entry& entry : metrics_) {
    if (entry.name == name) {
      entry.value = value;
      return;
    }
  }
  CheckFailed("harness set an undeclared metric: " + std::string(name));
}

void Report::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  if (++logged_ <= kMaxLoggedFailures) {
    std::fprintf(stderr, "FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
}

void Report::CheckFailed(const std::string& why) {
  checks_ok_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

corra::CompressionPlan LineitemPlan() {
  corra::CompressionPlan plan = corra::CompressionPlan::AllAuto(4);
  for (size_t target : {kCommitCol, kReceiptCol}) {
    plan.columns[target].auto_vertical = false;
    plan.columns[target].scheme = corra::enc::Scheme::kDiff;
    plan.columns[target].reference = static_cast<int>(kShipCol);
  }
  plan.num_threads = 1;
  return plan;
}

}  // namespace perfbench
