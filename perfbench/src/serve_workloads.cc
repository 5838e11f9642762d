// The serving workloads, both over one lineitem CORF file (8M rows, eight
// 1M-row blocks, l_commitdate and l_receiptdate Corra-Diff on l_shipdate):
//
//   point_hot  4 closed-loop clients, each request a ScanService::Gather of
//              l_shipdate + l_receiptdate at 256 positions, stride 3, inside
//              one block; window starts Zipf-skewed. Default cache (holds
//              every block), warmed in setup. Per-request work is tiny, so
//              dispatch dominates.
//   scan_cold  2 closed-loop clients, each request a ScanService::Execute
//              filtering l_shipdate to a ~10% window and projecting
//              l_receiptdate. The cache holds 2 of the 8 blocks, so every
//              request misses: load lands on miss fill, decode/filter,
//              merge and read-ahead.
//
// ScanService and BlockCache run with default Options; the harness sets
// only the registries and scan_cold's cache capacity. Every response is
// checked against the uncompressed columns kept from setup, right after
// its latency is taken.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "datagen/distributions.h"
#include "datagen/tpch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/filter.h"
#include "query/scan.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

namespace perfbench {
namespace {

namespace obs = corra::obs;
namespace serve = corra::serve;

constexpr size_t kServeRows = 8'000'000;
constexpr size_t kSetupRepeats = 5;

// The untraced measured phase runs in parts with an encode sample after
// each (see RunServe).
constexpr size_t kMeasureParts = 3;

constexpr size_t kPointClients = 4;
constexpr size_t kGatherRows = 256;
constexpr size_t kGatherStride = 3;
constexpr double kZipfExponent = 0.99;

constexpr size_t kScanClients = 2;
constexpr size_t kScanCacheBlocks = 2;
constexpr size_t kScanWindows = 8;
constexpr double kScanSelectivity = 0.10;

// The traced run splits --seconds into untraced, traced, untraced, traced
// (pooled) and inline segments, so the tracing overhead is a same-run
// comparison and both sides see the same drift.
constexpr size_t kTracedSegments = 5;

const std::array<size_t, 2> kGatherColumns = {kShipCol, kReceiptCol};

size_t ClientThreads(size_t wanted) {
  const size_t cores =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min(wanted, cores);
}

// Wall time of compressing the served table and publishing the file.
struct PublishTimes {
  double compress_s = 0;
  double write_s = 0;

  double MrowsPerS() const {
    return static_cast<double>(kServeRows) / (compress_s + write_s) / 1e6;
  }
};

struct Window {
  int64_t lo = 0;
  int64_t hi = 0;
};

// Everything a serving run sets up: the published file, the open reader
// over its cache, the service, and the uncompressed columns the oracle
// compares against.
struct Served {
  std::string path;
  std::vector<int64_t> ship;
  std::vector<int64_t> receipt;
  size_t cells = 0;
  uint64_t file_bytes = 0;
  PublishTimes publish;
  std::unique_ptr<obs::Registry> cache_registry;
  std::unique_ptr<obs::Registry> service_registry;
  std::shared_ptr<serve::BlockCache> cache;
  std::unique_ptr<serve::TableReader> reader;
  std::unique_ptr<serve::ScanService> service;
};

// The served lineitem table (orderdate, shipdate, commitdate, receiptdate).
corra::Table MakeServedTable(uint64_t seed) {
  auto table =
      corra::datagen::MakeLineitemTable(kServeRows, DeriveSeed(seed, 1));
  if (!table.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(table).value();
}

// Compresses `table` under the Table 2 lineitem plan and publishes it at
// `path`.
PublishTimes CompressAndPublish(const corra::Table& table,
                                const std::string& path) {
  PublishTimes times;
  const auto compress_start = Clock::now();
  auto compressed = corra::CorraCompressor::Compress(table, LineitemPlan());
  times.compress_s = SecondsSince(compress_start);
  if (!compressed.ok()) {
    std::fprintf(stderr, "compress failed: %s\n",
                 compressed.status().ToString().c_str());
    std::exit(1);
  }
  const auto write_start = Clock::now();
  const corra::Status written =
      corra::WriteCompressedTable(compressed.value(), path);
  times.write_s = SecondsSince(write_start);
  if (!written.ok()) {
    std::fprintf(stderr, "write failed: %s\n", written.ToString().c_str());
    std::exit(1);
  }
  return times;
}

// Generates, compresses, publishes and opens the served table. A
// capacity of 0 keeps the cache's default.
std::unique_ptr<Served> SetUp(const Args& args, size_t capacity_blocks) {
  auto served = std::make_unique<Served>();
  served->path = args.work_dir + "/lineitem_served.corf";
  const corra::Table table = MakeServedTable(args.seed);
  served->publish = CompressAndPublish(table, served->path);
  served->file_bytes = FileBytes(served->path);
  served->cells = table.num_rows() * table.num_columns();
  const auto ship = table.column(kShipCol).values();
  const auto receipt = table.column(kReceiptCol).values();
  served->ship.assign(ship.begin(), ship.end());
  served->receipt.assign(receipt.begin(), receipt.end());

  served->cache_registry = std::make_unique<obs::Registry>();
  served->service_registry = std::make_unique<obs::Registry>();
  serve::BlockCacheOptions cache_options;
  cache_options.registry = served->cache_registry.get();
  if (capacity_blocks != 0) {
    cache_options.capacity_blocks = capacity_blocks;
  }
  served->cache = std::make_shared<serve::BlockCache>(cache_options);
  auto reader = serve::TableReader::Open(served->path, served->cache);
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reader.status().ToString().c_str());
    std::exit(1);
  }
  served->reader = std::move(reader).value();
  serve::ScanService::Options service_options;
  service_options.registry = served->service_registry.get();
  served->service = std::make_unique<serve::ScanService>(service_options);
  return served;
}

// --- Request streams ---------------------------------------------------------

// point_hot: windows of kGatherRows positions at kGatherStride, aligned
// inside blocks; a Zipf rank picks the window through a seeded
// permutation, so the hot windows are spread over all blocks.
class PointStream {
 public:
  struct Shared {
    std::vector<uint64_t> window_start;  // Indexed by Zipf rank.
    std::unique_ptr<corra::datagen::ZipfDistribution> zipf;
  };

  static Shared MakeShared(uint64_t seed, const serve::TableReader& reader) {
    Shared shared;
    const uint64_t span = kGatherRows * kGatherStride;
    for (size_t b = 0; b < reader.num_blocks(); ++b) {
      const uint64_t base = reader.block_row_offsets()[b];
      for (uint64_t off = 0; off + span <= reader.block_rows(b);
           off += span) {
        shared.window_start.push_back(base + off);
      }
    }
    corra::Rng rng(DeriveSeed(seed, 2));
    std::shuffle(shared.window_start.begin(), shared.window_start.end(), rng);
    shared.zipf = std::make_unique<corra::datagen::ZipfDistribution>(
        shared.window_start.size(), kZipfExponent);
    return shared;
  }

  PointStream(const Shared& shared, uint64_t seed, size_t client)
      : shared_(shared), rng_(DeriveSeed(seed, 100 + client)),
        rows_(kGatherRows) {}

  std::span<const uint64_t> Next() {
    const uint64_t start = shared_.window_start[shared_.zipf->Sample(&rng_)];
    for (size_t i = 0; i < kGatherRows; ++i) {
      rows_[i] = start + i * kGatherStride;
    }
    return rows_;
  }

 private:
  const Shared& shared_;
  corra::Rng rng_;
  std::vector<uint64_t> rows_;
};

// scan_cold: kScanWindows shipdate windows of ~kScanSelectivity each,
// starts drawn from the seed. Starts avoid the 121-day ramps at both ends
// of the shipdate range (shipdate = orderdate + [1, 121]), where density
// falls off, so every window selects about the same number of rows.
std::vector<Window> MakeScanWindows(uint64_t seed,
                                    const std::vector<int64_t>& ship) {
  constexpr int64_t kRampDays = 121;
  const auto [min_it, max_it] = std::minmax_element(ship.begin(), ship.end());
  const int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(*max_it - *min_it + 1) *
                              kScanSelectivity));
  const int64_t first = *min_it + kRampDays;
  const int64_t last = std::max(first, *max_it - kRampDays - width + 1);
  corra::Rng rng(DeriveSeed(seed, 3));
  std::vector<Window> windows(kScanWindows);
  for (Window& w : windows) {
    w.lo = rng.Uniform(first, last);
    w.hi = w.lo + width - 1;
  }
  return windows;
}

// --- Closed-loop load generator ----------------------------------------------

// Sums over traced requests.
struct TraceTotals {
  uint64_t requests = 0;
  uint64_t units = 0;  // Block spans that were not stats-pruned.
  std::array<double, obs::kNumPhases> phase_ns{};
  double fill_ns = 0;
  uint64_t fill_spans = 0;
  double decode_ns = 0;
  uint64_t decode_spans = 0;

  void Add(const obs::RequestTrace& trace) {
    ++requests;
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      phase_ns[p] += static_cast<double>(trace.phase_ns[p]);
    }
    for (const obs::BlockSpan& span : trace.blocks) {
      if (span.pruned) {
        continue;
      }
      ++units;
      if (!span.cache_hit && !span.coalesced) {
        fill_ns += static_cast<double>(span.fill_ns);
        ++fill_spans;
      }
      if (!span.coalesced) {
        decode_ns += static_cast<double>(span.decode_ns);
        ++decode_spans;
      }
    }
  }
  void Merge(const TraceTotals& other) {
    requests += other.requests;
    units += other.units;
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      phase_ns[p] += other.phase_ns[p];
    }
    fill_ns += other.fill_ns;
    fill_spans += other.fill_spans;
    decode_ns += other.decode_ns;
    decode_spans += other.decode_spans;
  }
  double MeanPhaseUs(obs::Phase phase) const {
    return requests == 0
               ? 0
               : phase_ns[static_cast<size_t>(phase)] /
                     static_cast<double>(requests) / 1e3;
  }
};

// One client's tally of a segment.
struct ClientTally {
  LatencyHistogram latency;
  std::vector<uint64_t> completed_per_second;  // By whole second of run.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  TraceTotals trace;

  void Failure(std::string why) {
    if (failed++ == 0) {
      first_failure = std::move(why);
    }
  }
};

struct Segment {
  double seconds = 0;
  LatencyHistogram latency;
  // Requests completed in each whole second of the segment; the median
  // over seconds keeps a burst of host noise from moving the throughput.
  std::vector<double> completed_per_second;
  TraceTotals trace;

  double OpsPerSecond() const {
    return completed_per_second.empty()
               ? static_cast<double>(latency.count()) / seconds
               : Median(completed_per_second);
  }
  void Append(const Segment& other) {
    seconds += other.seconds;
    latency.Merge(other.latency);
    completed_per_second.insert(completed_per_second.end(),
                                other.completed_per_second.begin(),
                                other.completed_per_second.end());
    trace.Merge(other.trace);
  }
};

// Runs `clients` closed-loop threads for `seconds`. Each calls
// issue(client, &tally) back to back; issue times its own request and
// checks the response outside the timed interval.
template <typename Issue>
Segment RunClosedLoop(size_t clients, double seconds, Report* report,
                      Issue issue) {
  const size_t whole_seconds = static_cast<size_t>(seconds);
  std::vector<ClientTally> tallies(clients);
  for (ClientTally& tally : tallies) {
    tally.completed_per_second.assign(whole_seconds + 1, 0);
  }
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ClientTally& tally = tallies[c];
      while (Clock::now() < deadline) {
        issue(c, &tally);
        const size_t second = std::min(
            whole_seconds, static_cast<size_t>(SecondsSince(start)));
        ++tally.completed_per_second[second];
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  Segment segment;
  segment.seconds = SecondsSince(start);
  for (size_t second = 0; second < whole_seconds; ++second) {
    double completed = 0;
    for (const ClientTally& tally : tallies) {
      completed += static_cast<double>(tally.completed_per_second[second]);
    }
    segment.completed_per_second.push_back(completed);
  }
  for (ClientTally& tally : tallies) {
    segment.latency.Merge(tally.latency);
    segment.trace.Merge(tally.trace);
    report->Attempt(tally.attempted);
    if (tally.failed != 0) {
      report->Fail(tally.first_failure, tally.failed);
    }
  }
  return segment;
}

// Issues one point_hot Gather on `service` and checks it.
struct PointClient {
  const Served& served;
  serve::ScanService& service;
  std::vector<PointStream>& streams;
  bool traced;

  void operator()(size_t client, ClientTally* tally) const {
    const std::span<const uint64_t> rows = streams[client].Next();
    obs::RequestTrace trace;
    serve::GatherOptions options;
    options.trace = traced ? &trace : nullptr;
    ++tally->attempted;
    const auto start = Clock::now();
    auto result =
        service.Gather(*served.reader, kGatherColumns, rows, options);
    const uint64_t latency_ns = NanosSince(start);
    if (!result.ok()) {
      tally->Failure("gather: " + result.status().ToString());
      return;
    }
    const auto& columns = result.value();
    bool same = columns.size() == 2 && columns[0].size() == rows.size() &&
                columns[1].size() == rows.size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = columns[0][i] == served.ship[rows[i]] &&
             columns[1][i] == served.receipt[rows[i]];
    }
    if (!same) {
      tally->Failure("gather returned wrong values at row " +
                     std::to_string(rows[0]));
      return;
    }
    tally->latency.Record(latency_ns);
    if (traced) {
      tally->trace.Add(trace);
    }
  }
};

// Issues one scan_cold Execute on `service` and checks it.
struct ScanClient {
  const Served& served;
  serve::ScanService& service;
  const std::vector<Window>& windows;
  const std::vector<std::vector<int64_t>>& expected;
  std::vector<corra::Rng>& rngs;
  bool traced;

  void operator()(size_t client, ClientTally* tally) const {
    const size_t w = static_cast<size_t>(
        rngs[client].Uniform(0, static_cast<int64_t>(windows.size()) - 1));
    serve::ScanRequest request;
    request.filter_column = kShipCol;
    request.filter_lo = windows[w].lo;
    request.filter_hi = windows[w].hi;
    request.project_columns = {kReceiptCol};
    request.collect_trace = traced;
    ++tally->attempted;
    const auto start = Clock::now();
    auto result = service.Execute(*served.reader, request);
    const uint64_t latency_ns = NanosSince(start);
    if (!result.ok()) {
      tally->Failure("execute: " + result.status().ToString());
      return;
    }
    const serve::ScanResult& scan = result.value();
    const std::vector<int64_t>& want = expected[w];
    const bool same =
        scan.rows_matched == want.size() && scan.columns.size() == 1 &&
        scan.columns[0].size() == want.size() &&
        std::memcmp(scan.columns[0].data(), want.data(),
                    want.size() * sizeof(int64_t)) == 0;
    if (!same) {
      tally->Failure("execute returned wrong rows for window " +
                     std::to_string(w));
      return;
    }
    tally->latency.Record(latency_ns);
    if (traced && scan.trace.has_value()) {
      tally->trace.Add(*scan.trace);
    }
  }
};

// Receipt dates of the rows whose ship date lies in each window, in row
// order: what a scan_cold request must return.
std::vector<std::vector<int64_t>> ExpectedScans(
    const Served& served, const std::vector<Window>& windows) {
  std::vector<std::vector<int64_t>> expected(windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    for (size_t row = 0; row < served.ship.size(); ++row) {
      if (served.ship[row] >= windows[w].lo &&
          served.ship[row] <= windows[w].hi) {
        expected[w].push_back(served.receipt[row]);
      }
    }
  }
  return expected;
}

// --- Counters read from the exported telemetry -------------------------------

struct Counters {
  uint64_t coalesced = 0;
  uint64_t prefetch_issued = 0;
  uint64_t load_waits = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes_read = 0;
  uint64_t read_retries = 0;

  static Counters Read(const Served& served) {
    Counters c;
    obs::Registry& service = *served.service_registry;
    obs::Registry& storage = obs::Registry::Default();
    c.coalesced = service.counter("serve.coalesced_requests").Value();
    c.prefetch_issued = service.counter("serve.prefetch_issued").Value();
    const serve::BlockCacheStats cache = served.cache->GetStats();
    c.load_waits = cache.load_waits;
    c.hits = cache.hits;
    c.misses = cache.misses;
    c.evictions = cache.evictions;
    c.bytes_read = storage.counter("storage.block_read_bytes").Value();
    c.read_retries = storage.counter("storage.read_retries").Value();
    return c;
  }

  Counters operator-(const Counters& o) const {
    return {coalesced - o.coalesced,   prefetch_issued - o.prefetch_issued,
            load_waits - o.load_waits, hits - o.hits,
            misses - o.misses,         evictions - o.evictions,
            bytes_read - o.bytes_read, read_retries - o.read_retries};
  }
  Counters& operator+=(const Counters& o) {
    coalesced += o.coalesced;
    prefetch_issued += o.prefetch_issued;
    load_waits += o.load_waits;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    bytes_read += o.bytes_read;
    read_retries += o.read_retries;
    return *this;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- Layer timings outside the service ---------------------------------------

// Median ms of CorfFile::ReadBlock over every block (3 rounds).
double TimeReadBlockMs(const Served& served, Report* report) {
  auto file = corra::CorfFile::Open(served.path);
  if (!file.ok()) {
    report->CheckFailed("CorfFile::Open: " + file.status().ToString());
    return 0;
  }
  std::vector<double> ms;
  for (int round = 0; round < 3; ++round) {
    for (size_t b = 0; b < file.value().num_blocks(); ++b) {
      const auto start = Clock::now();
      auto block = file.value().ReadBlock(b);
      ms.push_back(SecondsSince(start) * 1e3);
      if (!block.ok()) {
        report->CheckFailed("ReadBlock: " + block.status().ToString());
      }
    }
  }
  return Median(ms);
}

struct KernelTimes {
  double filter_ns_per_row = 0;
  double scan_ns_per_row = 0;
  double gather_ns_per_row = 0;
};

// Times query::FilterToSelection + ScanColumn (scan_cold's per-block
// work) and ScanColumn at point_hot's selection shape on resident block 0,
// checking each output against the uncompressed columns.
KernelTimes TimeKernels(const Served& served,
                        const std::vector<Window>& windows, uint64_t seed,
                        Report* report) {
  KernelTimes times;
  auto handle = served.reader->GetBlock(0);
  if (!handle.ok()) {
    report->CheckFailed("GetBlock: " + handle.status().ToString());
    return times;
  }
  const corra::Block& block = *handle.value();
  const size_t rows = block.rows();

  std::vector<double> filter_ns;
  std::vector<double> scan_ns;
  for (int round = 0; round < 3; ++round) {
    for (const Window& w : windows) {
      auto start = Clock::now();
      const std::vector<uint32_t> selection = corra::query::FilterToSelection(
          block.column(kShipCol), w.lo, w.hi);
      filter_ns.push_back(static_cast<double>(NanosSince(start)) /
                          static_cast<double>(rows));
      start = Clock::now();
      const std::vector<int64_t> values =
          corra::query::ScanColumn(block, kReceiptCol, selection);
      scan_ns.push_back(Ratio(static_cast<double>(NanosSince(start)),
                              static_cast<double>(selection.size())));
      size_t matches = 0;
      bool same = values.size() == selection.size();
      for (size_t row = 0; row < rows; ++row) {
        if (served.ship[row] >= w.lo && served.ship[row] <= w.hi) {
          same = same && matches < selection.size() &&
                 selection[matches] == row &&
                 values[matches] == served.receipt[row];
          ++matches;
        }
      }
      if (!same || matches != selection.size()) {
        report->CheckFailed("filter/scan kernels returned wrong rows");
      }
    }
  }
  times.filter_ns_per_row = Median(filter_ns);
  times.scan_ns_per_row = Median(scan_ns);

  // point_hot's shape: 256 positions at stride 3, window starts uniform
  // over the block.
  constexpr size_t kCalls = 2000;
  const size_t span = kGatherRows * kGatherStride;
  corra::Rng rng(DeriveSeed(seed, 4));
  std::vector<uint32_t> positions(kGatherRows);
  std::vector<int64_t> out(kGatherRows);
  std::vector<double> gather_ns;
  for (int batch = 0; batch < 11; ++batch) {
    double ns = 0;
    for (size_t call = 0; call < kCalls; ++call) {
      const uint32_t first = static_cast<uint32_t>(
          rng.Uniform(0, static_cast<int64_t>(rows - span)));
      for (size_t i = 0; i < kGatherRows; ++i) {
        positions[i] = first + static_cast<uint32_t>(i * kGatherStride);
      }
      const auto start = Clock::now();
      corra::query::ScanColumn(block, kReceiptCol, positions, out.data());
      ns += static_cast<double>(NanosSince(start));
      for (size_t i = 0; i < kGatherRows; ++i) {
        if (out[i] != served.receipt[positions[i]]) {
          report->CheckFailed("gather kernel returned wrong values");
          break;
        }
      }
    }
    gather_ns.push_back(ns / static_cast<double>(kCalls * kGatherRows));
  }
  times.gather_ns_per_row = Median(gather_ns);
  return times;
}

// --- Runs --------------------------------------------------------------------

struct Workload {
  size_t clients = 0;
  size_t cache_blocks = 0;  // 0 = the cache's default capacity.
  bool point = false;
};

// Builds the per-client issue functor for `service` and runs a segment.
Segment RunSegment(const Workload& workload, const Served& served,
                   serve::ScanService& service, uint64_t seed,
                   const PointStream::Shared* point_shared,
                   const std::vector<Window>& windows,
                   const std::vector<std::vector<int64_t>>& expected,
                   double seconds, bool traced, Report* report) {
  if (workload.point) {
    std::vector<PointStream> streams;
    for (size_t c = 0; c < workload.clients; ++c) {
      streams.emplace_back(*point_shared, seed, c);
    }
    return RunClosedLoop(workload.clients, seconds, report,
                         PointClient{served, service, streams, traced});
  }
  std::vector<corra::Rng> rngs;
  for (size_t c = 0; c < workload.clients; ++c) {
    rngs.emplace_back(DeriveSeed(seed, 200 + c));
  }
  return RunClosedLoop(
      workload.clients, seconds, report,
      ScanClient{served, service, windows, expected, rngs, traced});
}

// The setup step users pay before the first request: datagen, compress,
// publish, open, and warm the cache (every block for point_hot; one
// request for scan_cold).
std::unique_ptr<Served> SetUpAndWarm(const Workload& workload,
                                     const Args& args, Report* report) {
  std::unique_ptr<Served> served = SetUp(args, workload.cache_blocks);
  if (workload.point) {
    for (size_t b = 0; b < served->reader->num_blocks(); ++b) {
      if (!served->reader->GetBlock(b).ok()) {
        report->CheckFailed("warm-up GetBlock failed");
      }
    }
  } else {
    serve::ScanRequest request;
    request.filter_column = kShipCol;
    request.project_columns = {kReceiptCol};
    if (!served->service->Execute(*served->reader, request).ok()) {
      report->CheckFailed("warm-up Execute failed");
    }
  }
  return served;
}

void RunServe(const Workload& workload, const Args& args, Report* report) {
  std::unique_ptr<Served> served;
  std::vector<double> setup_s;
  std::vector<double> encode_mrows_per_s;
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t i = 0; i < repeats; ++i) {
    served.reset();  // Close the previous reader before rewriting its file.
    const auto start = Clock::now();
    served = SetUpAndWarm(workload, args, report);
    setup_s.push_back(SecondsSince(start));
    encode_mrows_per_s.push_back(served->publish.MrowsPerS());
  }

  // Oracle inputs and request streams, outside setup_s.
  const std::vector<Window> windows = MakeScanWindows(args.seed, served->ship);
  std::vector<std::vector<int64_t>> expected;
  std::unique_ptr<PointStream::Shared> point_shared;
  if (workload.point) {
    point_shared = std::make_unique<PointStream::Shared>(
        PointStream::MakeShared(args.seed, *served->reader));
  } else {
    expected = ExpectedScans(*served, windows);
  }

  if (!args.trace) {
    // Host speed drifts in episodes of several seconds, and the setups all
    // fall in one. So the table is also compressed and published again
    // (to a side file, removed after) after each part of the measured
    // phase; encode_mrows_per_s is the median of the setups' median and
    // these samples. Peak RSS is read per part, so it covers serving only.
    Segment segment;
    double peak_rss = 0;
    std::vector<double> encode = {Median(encode_mrows_per_s)};
    for (size_t part = 0; part < kMeasureParts; ++part) {
      ResetPeakRss();
      segment.Append(RunSegment(workload, *served, *served->service,
                                args.seed, point_shared.get(), windows,
                                expected, args.seconds / kMeasureParts,
                                /*traced=*/false, report));
      peak_rss = std::max(peak_rss, PeakRssMb());
      const std::string path = args.work_dir + "/encode_sample.corf";
      encode.push_back(
          CompressAndPublish(MakeServedTable(args.seed), path).MrowsPerS());
      std::remove(path.c_str());
    }
    std::fprintf(stderr,
                 "%s: %zu clients, %llu requests (the latency samples) in "
                 "%.2f s\n",
                 args.workload.c_str(), workload.clients,
                 static_cast<unsigned long long>(segment.latency.count()),
                 segment.seconds);
    report->Set("setup_s", Median(setup_s));
    report->Set("ops_per_s", segment.OpsPerSecond());
    report->Set("p50_us", segment.latency.QuantileUs(0.50));
    report->Set("p99_us", segment.latency.QuantileUs(0.99));
    report->Set("encode_mrows_per_s", Median(encode));
    report->Set("bytes_per_value", static_cast<double>(served->file_bytes) /
                                       static_cast<double>(served->cells));
    report->Set("peak_rss_mb", peak_rss);
    return;
  }

  const double part = args.seconds / kTracedSegments;
  const auto run = [&](serve::ScanService& service, bool traced) {
    return RunSegment(workload, *served, service, args.seed,
                      point_shared.get(), windows, expected, part, traced,
                      report);
  };
  Segment untraced;
  Segment traced;
  Counters counters;
  for (int round = 0; round < 2; ++round) {
    untraced.Append(run(*served->service, false));
    const Counters before = Counters::Read(*served);
    traced.Append(run(*served->service, true));
    counters += Counters::Read(*served) - before;
  }
  const TraceTotals& trace = traced.trace;
  // Same request streams through an inline (caller-runs) service.
  obs::Registry inline_registry;
  serve::ScanService::Options inline_options;
  inline_options.num_threads = 0;
  inline_options.registry = &inline_registry;
  serve::ScanService inline_service(inline_options);
  const Segment inline_segment = run(inline_service, false);

  const KernelTimes kernels =
      TimeKernels(*served, windows, args.seed, report);
  const double read_block_ms = TimeReadBlockMs(*served, report);
  if (counters.read_retries != 0) {
    report->CheckFailed("storage.read_retries is nonzero");
  }

  const double ops = static_cast<double>(trace.requests);
  const double untraced_rate = untraced.OpsPerSecond();
  const double traced_rate = traced.OpsPerSecond();
  const double inline_p50 = inline_segment.latency.QuantileUs(0.5);
  std::fprintf(stderr,
               "%s traced: %.0f untraced ops/s, %.0f traced ops/s, %.0f "
               "inline ops/s, %llu traced requests\n",
               args.workload.c_str(), untraced_rate, traced_rate,
               inline_segment.OpsPerSecond(),
               static_cast<unsigned long long>(trace.requests));
  report->Set("scan_service.queue_wait_us",
              trace.MeanPhaseUs(obs::Phase::kQueueWait));
  report->Set("scan_service.inline_p50_us", inline_p50);
  report->Set("scan_service.handoff_us",
              untraced.latency.QuantileUs(0.5) - inline_p50);
  report->Set("scan_service.merge_us", trace.MeanPhaseUs(obs::Phase::kMerge));
  report->Set("coalescer.piggyback_ratio",
              Ratio(static_cast<double>(counters.coalesced),
                    static_cast<double>(trace.units)));
  report->Set("coalescer.scatter_us",
              trace.MeanPhaseUs(obs::Phase::kScatter));
  report->Set("read_ahead.issued_per_op",
              Ratio(static_cast<double>(counters.prefetch_issued), ops));
  report->Set("read_ahead.absorbed_ratio",
              Ratio(static_cast<double>(counters.load_waits),
                    static_cast<double>(counters.prefetch_issued)));
  report->Set("block_cache.hit_ratio",
              Ratio(static_cast<double>(counters.hits),
                    static_cast<double>(counters.hits + counters.misses)));
  report->Set("block_cache.evictions_per_op",
              Ratio(static_cast<double>(counters.evictions), ops));
  report->Set("block_cache.pin_us", trace.MeanPhaseUs(obs::Phase::kCachePin));
  report->Set("storage.fill_us",
              Ratio(trace.fill_ns, static_cast<double>(trace.fill_spans)) /
                  1e3);
  report->Set("storage.read_block_ms", read_block_ms);
  report->Set("storage.bytes_read_per_op",
              Ratio(static_cast<double>(counters.bytes_read), ops));
  report->Set("storage.read_retries",
              static_cast<double>(counters.read_retries));
  report->Set("storage.write_mb_per_s",
              static_cast<double>(served->file_bytes) /
                  served->publish.write_s / 1e6);
  report->Set("query.decode_filter_us",
              Ratio(trace.decode_ns, static_cast<double>(trace.decode_spans)) /
                  1e3);
  report->Set("query.filter_ns_per_row", kernels.filter_ns_per_row);
  report->Set("query.scan_ns_per_row", kernels.scan_ns_per_row);
  report->Set("query.gather_ns_per_row", kernels.gather_ns_per_row);
  report->Set("core.compress_ns_per_row.lineitem",
              served->publish.compress_s * 1e9 /
                  static_cast<double>(kServeRows));
  report->Set("obs.trace_overhead_pct",
              100.0 * (untraced_rate - traced_rate) / untraced_rate);
}

}  // namespace

void RunPointHot(const Args& args, Report* report) {
  RunServe(Workload{.clients = ClientThreads(kPointClients),
                    .cache_blocks = 0,
                    .point = true},
           args, report);
}

void RunScanCold(const Args& args, Report* report) {
  RunServe(Workload{.clients = ClientThreads(kScanClients),
                    .cache_blocks = kScanCacheBlocks,
                    .point = false},
           args, report);
}

}  // namespace perfbench
