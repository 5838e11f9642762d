// The `compress` workload: the paper's own job. Setup generates the four
// Table 2 corpora (TPC-H lineitem dates, Taxi, DMV, LDBC message) at
// 1/kScaleDivisor of paper scale; the measured phase repeatedly compresses
// each under its Table 2 Corra plan on one thread and publishes it with
// WriteCompressedTable. One operation is one corpus published.
//
// The traced run times the layers underneath (Compress per corpus,
// WriteCompressedTable, SelectBestScheme per auto column, EstimateSchemes
// against the bytes actually produced) and prints the Table 2 scorecard:
// baseline (AllAuto) vs Corra bytes next to the paper's figures.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"
#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "encoding/selector.h"
#include "storage/file_io.h"

namespace perfbench {
namespace {

using corra::CompressionPlan;
using corra::CorraCompressor;
using corra::Table;

// Every corpus at 1/32 of the paper's row count: one pass over all four
// takes about a second on one core, so a run holds several passes.
constexpr size_t kScaleDivisor = 32;
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMinPasses = 2;

// One Table 2 row: the column, and the paper's figures for it (the values
// bench/bench_table2_compression.cc prints next to its own).
struct Table2Column {
  const char* column;
  size_t index;
  double paper_without_mb;
  double paper_with_mb;
  double paper_saving;
};

struct Corpus {
  const char* name;
  size_t paper_rows = 0;
  Table table;
  CompressionPlan plan;
  std::vector<Table2Column> table2;
  std::string path;
};

CompressionPlan TaxiPlan() {
  using C = corra::datagen::TaxiColumns;
  CompressionPlan plan = CompressionPlan::AllAuto(11);
  plan.columns[C::kDropoff].auto_vertical = false;
  plan.columns[C::kDropoff].scheme = corra::enc::Scheme::kDiff;
  plan.columns[C::kDropoff].reference = C::kPickup;
  auto& total = plan.columns[C::kTotalAmount];
  total.auto_vertical = false;
  total.scheme = corra::enc::Scheme::kMultiRef;
  total.formulas.groups = {
      {C::kMtaTax, C::kFareAmount, C::kImprovementSurcharge, C::kExtra,
       C::kTipAmount, C::kTollsAmount},
      {C::kCongestionSurcharge},
      {C::kAirportFee}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  total.max_outlier_fraction = 0.02;
  plan.num_threads = 1;
  return plan;
}

CompressionPlan DmvPlan() {
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.columns[1].auto_vertical = false;  // city w.r.t. state
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  plan.columns[2].auto_vertical = false;  // zip w.r.t. city
  plan.columns[2].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[2].reference = 1;
  plan.num_threads = 1;
  return plan;
}

CompressionPlan LdbcPlan() {
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;  // ip w.r.t. countryid
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  plan.num_threads = 1;
  return plan;
}

template <typename T>
T OrDie(corra::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "setup failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::vector<Corpus> MakeCorpora(uint64_t seed, const std::string& dir) {
  namespace dg = corra::datagen;
  using C = dg::TaxiColumns;
  std::vector<Corpus> corpora(4);

  Corpus& lineitem = corpora[0];
  lineitem.name = "lineitem";
  lineitem.paper_rows = dg::kLineitemRowsSf10;
  lineitem.table = OrDie(dg::MakeLineitemTable(dg::kLineitemRowsSf10 /
                                                   kScaleDivisor,
                                               DeriveSeed(seed, 1)),
                         "lineitem");
  lineitem.plan = LineitemPlan();
  lineitem.table2 = {{"l_receiptdate", kReceiptCol, 89.99, 37.49, 0.583},
                     {"l_commitdate", kCommitCol, 89.99, 59.99, 0.333}};

  Corpus& taxi = corpora[1];
  taxi.name = "taxi";
  taxi.paper_rows = dg::kTaxiRows;
  taxi.table = OrDie(
      dg::MakeTaxiTable(dg::kTaxiRows / kScaleDivisor, DeriveSeed(seed, 2)),
      "taxi");
  taxi.plan = TaxiPlan();
  taxi.table2 = {{"dropoff", C::kDropoff, 136.64, 94.7, 0.306},
                 {"total_amount", C::kTotalAmount, 66.32, 9.84, 0.8516}};

  Corpus& dmv = corpora[2];
  dmv.name = "dmv";
  dmv.paper_rows = dg::kDmvRows;
  dmv.table = OrDie(dg::MakeDmvTableFromCodes(dg::kDmvRows / kScaleDivisor,
                                              DeriveSeed(seed, 3)),
                    "dmv");
  dmv.plan = DmvPlan();
  dmv.table2 = {{"zip_code", 2, 25.88, 11.96, 0.537},
                {"city", 1, 21.45, 21.05, 0.018}};

  Corpus& ldbc = corpora[3];
  ldbc.name = "ldbc";
  ldbc.paper_rows = dg::kMessageRowsSf30;
  ldbc.table = OrDie(dg::MakeLdbcTable(dg::kMessageRowsSf30 / kScaleDivisor,
                                       DeriveSeed(seed, 4)),
                     "ldbc");
  ldbc.plan = LdbcPlan();
  ldbc.table2 = {{"ip", 1, 195.14, 161.76, 0.171}};

  for (Corpus& corpus : corpora) {
    corpus.path = dir + "/" + corpus.name + ".corf";
  }
  return corpora;
}

// Empty when equal; otherwise the first difference.
std::string DiffTables(const Table& expected, const Table& actual) {
  if (!(expected.schema() == actual.schema()) ||
      expected.num_rows() != actual.num_rows()) {
    return "schema or row count differs";
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const auto& want = expected.column(c);
    const auto& got = actual.column(c);
    if (!std::equal(want.values().begin(), want.values().end(),
                    got.values().begin(), got.values().end())) {
      return "values of column " + want.name() + " differ";
    }
    const auto* want_dict = want.dictionary().get();
    const auto* got_dict = got.dictionary().get();
    if ((want_dict == nullptr) != (got_dict == nullptr)) {
      return "dictionary presence of column " + want.name() + " differs";
    }
    if (want_dict != nullptr) {
      if (want_dict->size() != got_dict->size()) {
        return "dictionary size of column " + want.name() + " differs";
      }
      for (size_t code = 0; code < want_dict->size(); ++code) {
        if ((*want_dict)[code] != (*got_dict)[code]) {
          return "dictionary of column " + want.name() + " differs";
        }
      }
    }
  }
  return "";
}

// The oracle: every published file reads back (checksums and block
// integrity verified) and decompresses to exactly its input.
void CheckRoundTrips(const std::vector<Corpus>& corpora, Report* report) {
  for (const Corpus& corpus : corpora) {
    report->Attempt();
    auto read = corra::ReadCompressedTable(corpus.path, /*verify=*/true);
    if (!read.ok()) {
      report->Fail(std::string(corpus.name) +
                   " read back: " + read.status().ToString());
      continue;
    }
    auto restored = CorraCompressor::Decompress(read.value());
    if (!restored.ok()) {
      report->Fail(std::string(corpus.name) +
                   " decompress: " + restored.status().ToString());
      continue;
    }
    const std::string diff = DiffTables(corpus.table, restored.value());
    if (!diff.empty()) {
      report->Fail(std::string(corpus.name) + " round trip: " + diff);
    }
  }
}

size_t TotalRows(const std::vector<Corpus>& corpora) {
  size_t rows = 0;
  for (const Corpus& corpus : corpora) {
    rows += corpus.table.num_rows();
  }
  return rows;
}

void RunMeasured(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::vector<Corpus> corpora;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    corpora.clear();
    const auto start = Clock::now();
    corpora = MakeCorpora(args.seed, args.work_dir);
    setup_s.push_back(SecondsSince(start));
  }
  size_t cells = 0;
  for (const Corpus& corpus : corpora) {
    cells += corpus.table.num_rows() * corpus.table.num_columns();
  }
  const double rows = static_cast<double>(TotalRows(corpora));

  ResetPeakRss();
  std::vector<double> latency_us;
  std::vector<double> pass_mrows_per_s;
  std::vector<double> pass_ops_per_s;
  std::vector<uint64_t> file_bytes(corpora.size(), 0);
  size_t passes = 0;
  const auto start = Clock::now();
  while (passes < kMinPasses || SecondsSince(start) < args.seconds) {
    const auto pass_start = Clock::now();
    for (size_t c = 0; c < corpora.size(); ++c) {
      const Corpus& corpus = corpora[c];
      report->Attempt();
      const auto op_start = Clock::now();
      auto compressed = CorraCompressor::Compress(corpus.table, corpus.plan);
      const corra::Status written =
          compressed.ok()
              ? corra::WriteCompressedTable(compressed.value(), corpus.path)
              : compressed.status();
      latency_us.push_back(static_cast<double>(NanosSince(op_start)) / 1e3);
      if (!written.ok()) {
        report->Fail(std::string(corpus.name) +
                     " publish: " + written.ToString());
        continue;
      }
      const uint64_t bytes = FileBytes(corpus.path);
      if (passes == 0) {
        file_bytes[c] = bytes;
      } else if (bytes != file_bytes[c]) {
        report->Fail(std::string(corpus.name) +
                     " published a different size on a repeat pass");
      }
    }
    const double pass_s = SecondsSince(pass_start);
    pass_mrows_per_s.push_back(rows / pass_s / 1e6);
    pass_ops_per_s.push_back(static_cast<double>(corpora.size()) / pass_s);
    ++passes;
  }
  const double elapsed = SecondsSince(start);
  const double peak_rss = PeakRssMb();

  CheckRoundTrips(corpora, report);

  uint64_t total_bytes = 0;
  for (uint64_t bytes : file_bytes) {
    total_bytes += bytes;
  }
  std::fprintf(stderr,
               "compress: %zu passes, %zu publishes in %.2f s, %zu rows, "
               "%zu cells, %llu bytes\n",
               passes, latency_us.size(), elapsed, TotalRows(corpora), cells,
               static_cast<unsigned long long>(total_bytes));
  report->Set("setup_s", Median(setup_s));
  report->Set("ops_per_s", Median(pass_ops_per_s));
  report->Set("p50_us", Quantile(latency_us, 0.50));
  report->Set("p99_us", Quantile(latency_us, 0.99));
  report->Set("encode_mrows_per_s", Median(pass_mrows_per_s));
  report->Set("bytes_per_value",
              static_cast<double>(total_bytes) / static_cast<double>(cells));
  report->Set("peak_rss_mb", peak_rss);
}

// Accumulators of the traced run's layer timings.
struct SelectorStats {
  double select_ns = 0;
  double values = 0;
  double estimate_abs_error = 0;
  double actual_bytes = 0;
};

// Times SelectBestScheme on every auto column's block slices, and
// compares the winning EstimateSchemes figure with the bytes produced.
void TimeSelector(const Corpus& corpus, SelectorStats* stats,
                  Report* report) {
  const Table& table = corpus.table;
  const corra::enc::SelectionOptions options{.workload =
                                                 corpus.plan.workload};
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!corpus.plan.columns[c].auto_vertical) {
      continue;
    }
    for (size_t begin = 0; begin < table.num_rows();
         begin += corpus.plan.block_rows) {
      const size_t len =
          std::min(corpus.plan.block_rows, table.num_rows() - begin);
      const auto slice = table.column(c).values().subspan(begin, len);
      const auto start = Clock::now();
      auto selected = corra::enc::SelectBestScheme(slice, options);
      stats->select_ns += static_cast<double>(NanosSince(start));
      stats->values += static_cast<double>(len);
      if (!selected.ok()) {
        report->CheckFailed(std::string(corpus.name) + " selector: " +
                            selected.status().ToString());
        continue;
      }
      size_t estimate = std::numeric_limits<size_t>::max();
      for (const auto& candidate :
           corra::enc::EstimateSchemes(slice, options)) {
        estimate = std::min(estimate, candidate.size_bytes);
      }
      const double actual =
          static_cast<double>(selected.value()->SizeBytes());
      stats->estimate_abs_error +=
          std::abs(static_cast<double>(estimate) - actual);
      stats->actual_bytes += actual;
    }
  }
}

void RunTraced(const Args& args, Report* report) {
  std::vector<Corpus> corpora = MakeCorpora(args.seed, args.work_dir);
  const size_t n = corpora.size();
  std::vector<std::vector<double>> compress_ns_per_row(n);
  std::vector<double> write_mb_per_s;
  std::vector<double> select_ns_per_value;
  std::vector<double> estimate_error_pct;
  // Per corpus, per Table 2 column: {baseline bytes, Corra bytes} of the
  // first pass; later passes must reproduce them exactly.
  std::vector<std::vector<std::pair<size_t, size_t>>> table2_bytes(n);
  bool bytes_repeat = true;

  size_t passes = 0;
  const auto start = Clock::now();
  while (passes < kMinPasses || SecondsSince(start) < args.seconds) {
    SelectorStats selector;
    for (size_t c = 0; c < n; ++c) {
      const Corpus& corpus = corpora[c];
      CompressionPlan baseline_plan =
          CompressionPlan::AllAuto(corpus.table.num_columns());
      baseline_plan.num_threads = 1;
      auto baseline = CorraCompressor::Compress(corpus.table, baseline_plan);

      report->Attempt();
      const auto compress_start = Clock::now();
      auto compressed = CorraCompressor::Compress(corpus.table, corpus.plan);
      const double compress_ns =
          static_cast<double>(NanosSince(compress_start));
      if (!compressed.ok() || !baseline.ok()) {
        report->Fail(std::string(corpus.name) + " compress failed");
        continue;
      }
      compress_ns_per_row[c].push_back(
          compress_ns / static_cast<double>(corpus.table.num_rows()));

      const auto write_start = Clock::now();
      const corra::Status written =
          corra::WriteCompressedTable(compressed.value(), corpus.path);
      const double write_s = SecondsSince(write_start);
      if (!written.ok()) {
        report->Fail(std::string(corpus.name) +
                     " publish: " + written.ToString());
        continue;
      }
      write_mb_per_s.push_back(
          static_cast<double>(FileBytes(corpus.path)) / write_s / 1e6);

      std::vector<std::pair<size_t, size_t>> bytes;
      for (const Table2Column& col : corpus.table2) {
        bytes.emplace_back(baseline.value().ColumnSizeBytes(col.index),
                           compressed.value().ColumnSizeBytes(col.index));
      }
      if (passes == 0) {
        table2_bytes[c] = bytes;
      } else if (bytes != table2_bytes[c]) {
        bytes_repeat = false;
        report->CheckFailed(std::string(corpus.name) +
                            " Table 2 bytes changed between passes");
      }
      TimeSelector(corpus, &selector, report);
    }
    select_ns_per_value.push_back(selector.select_ns / selector.values);
    estimate_error_pct.push_back(100.0 * selector.estimate_abs_error /
                                 selector.actual_bytes);
    ++passes;
  }
  CheckRoundTrips(corpora, report);

  for (size_t c = 0; c < n; ++c) {
    report->Set(std::string("core.compress_ns_per_row.") + corpora[c].name,
                Median(compress_ns_per_row[c]));
  }
  report->Set("storage.write_mb_per_s", Median(write_mb_per_s));
  report->Set("encoding.select_ns_per_value", Median(select_ns_per_value));
  report->Set("encoding.estimate_error_pct", Median(estimate_error_pct));

  // The scorecard: sizes normalized to the paper's row counts, as the
  // paper's Table 2 reports them.
  std::string card = "{\"scorecard\": \"table2\", \"command\": "
                     "\"python3 perfbench/run.py --workload compress --seed " +
                     std::to_string(args.seed) + " --trace 1\", \"seed\": " +
                     std::to_string(args.seed) + ", \"scale\": \"1/" +
                     std::to_string(kScaleDivisor) + "\", \"columns\": [";
  bool first = true;
  for (size_t c = 0; c < n; ++c) {
    const Corpus& corpus = corpora[c];
    if (table2_bytes[c].size() != corpus.table2.size()) {
      continue;  // Compression failed; already counted.
    }
    const double to_paper_mb = static_cast<double>(corpus.paper_rows) /
                               static_cast<double>(corpus.table.num_rows()) /
                               1e6;
    for (size_t i = 0; i < corpus.table2.size(); ++i) {
      const Table2Column& col = corpus.table2[i];
      const auto [baseline, corra] = table2_bytes[c][i];
      const double saving_pct =
          100.0 * (1.0 - static_cast<double>(corra) /
                             static_cast<double>(baseline));
      report->Set(std::string("core.bytes.") + corpus.name + "." + col.column,
                  static_cast<double>(corra));
      report->Set(std::string("core.saving_pct.") + col.column, saving_pct);
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s{\"dataset\": \"%s\", \"column\": \"%s\", \"rows\": %zu, "
          "\"baseline_bytes\": %zu, \"corra_bytes\": %zu, "
          "\"saving_pct\": %.3f, \"baseline_mb_at_paper_rows\": %.2f, "
          "\"corra_mb_at_paper_rows\": %.2f, \"paper_without_mb\": %.2f, "
          "\"paper_with_mb\": %.2f, \"paper_saving_pct\": %.2f, "
          "\"deviation_pct_points\": %.3f}",
          first ? "" : ", ", corpus.name, col.column,
          corpus.table.num_rows(), baseline, corra, saving_pct,
          static_cast<double>(baseline) * to_paper_mb,
          static_cast<double>(corra) * to_paper_mb, col.paper_without_mb,
          col.paper_with_mb, 100.0 * col.paper_saving,
          saving_pct - 100.0 * col.paper_saving);
      card += row;
      first = false;
    }
  }
  card += "], \"repeat_passes_identical\": ";
  card += bytes_repeat ? "true" : "false";
  card += ", \"passes\": " + std::to_string(passes) + "}";
  std::printf("%s\n", card.c_str());
}

}  // namespace

void RunCompress(const Args& args, Report* report) {
  if (args.trace) {
    RunTraced(args, report);
  } else {
    RunMeasured(args, report);
  }
}

}  // namespace perfbench
