// Shared helpers for the figure-reproduction binaries: a tiny CLI parser
// (--paper / --scale=<log2 shift> / --json=<path> / --threads=<n>), aligned
// table printing, and a machine-readable JSON series writer, so every bench
// emits the same style of series the paper plots — and a BENCH_*.json
// trajectory future PRs can diff against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ppc::benchutil {

/// Parsed command line. The figure benches default to a scaled-down run
/// (same k·n/m ratios as the paper, smaller N) so `for b in bench/*; do $b;
/// done` finishes quickly; `--paper` restores the paper's exact sizes.
struct Args {
  bool paper = false;
  /// log2 of the down-scaling factor applied to N and m (default 16 means
  /// N = 2^20 becomes 2^(20-4)=2^16 when scale_shift=4).
  int scale_shift = 4;
  /// When non-empty, the bench also writes its series as JSON here.
  std::string json;
  /// Thread budget for parallel benches (0 = the bench's own default).
  int threads = 0;

  static void print_usage(const char* argv0) {
    std::printf(
        "usage: %s [--paper] [--scale=<shift>] [--json=<path>] "
        "[--threads=<n>]\n"
        "  --paper         run at the paper's exact sizes (N=2^20)\n"
        "  --scale=<s>     divide N and m by 2^s for quick runs "
        "(default 4)\n"
        "  --json=<path>   also write the series as machine-readable JSON\n"
        "  --threads=<n>   thread budget for parallel benches\n",
        argv0);
  }

  /// Extracts the arguments this library understands and compacts argv so
  /// the remainder can go to another parser (google-benchmark keeps flags
  /// like --benchmark_filter). Does not reject anything.
  static Args parse_known(int& argc, char** argv) {
    Args args;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      char* a = argv[i];
      if (std::strcmp(a, "--paper") == 0) {
        args.paper = true;
      } else if (std::strncmp(a, "--scale=", 8) == 0) {
        args.scale_shift = std::atoi(a + 8);
        if (args.scale_shift < 0 || args.scale_shift > 40) {
          // A shift ≥ 64 is UB (on x86 it silently wraps to *no* scaling);
          // anything past 40 zeroes every realistic paper size anyway.
          std::fprintf(stderr,
                       "--scale=%d out of range [0, 40] (log2 shift)\n",
                       args.scale_shift);
          std::exit(2);
        }
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        args.json = a + 7;
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = std::atoi(a + 10);
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        print_usage(argv[0]);
        std::exit(0);
      } else {
        argv[kept++] = a;
        continue;
      }
    }
    argc = kept;
    if (args.paper) args.scale_shift = 0;
    return args;
  }

  /// Strict variant for the plain figure binaries: unknown args are fatal.
  static Args parse(int argc, char** argv) {
    Args args = parse_known(argc, argv);
    for (int i = 1; i < argc; ++i) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
    return args;
  }

  /// Scales a paper-sized quantity down by the configured shift.
  std::uint64_t scaled(std::uint64_t paper_value) const {
    return paper_value >> scale_shift;
  }
};

/// Fixed-width table printing: header then rows of doubles/ints.
/// Median and quartiles of a bench arm's interleaved rep samples.
struct Spread {
  double q1, median, q3;
};

/// Quartiles by nearest rank, each sample multiplied by `scale`.
inline Spread spread_of(std::vector<double> samples, double scale = 1.0) {
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    return samples[static_cast<std::size_t>(q * (samples.size() - 1) + 0.5)] *
           scale;
  };
  return {at(0.25), at(0.5), at(0.75)};
}

inline void print_rule(std::size_t cols, int width = 14) {
  for (std::size_t i = 0; i < cols; ++i) {
    for (int j = 0; j < width; ++j) std::fputc('-', stdout);
    std::fputc(i + 1 == cols ? '\n' : '+', stdout);
  }
}

inline void print_header(const std::vector<std::string>& cols,
                         int width = 14) {
  for (const auto& c : cols) std::printf("%*s ", width - 1, c.c_str());
  std::fputc('\n', stdout);
  print_rule(cols.size(), width);
}

inline void print_cell(double v, int width = 14) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 &&
      v > -1e15) {
    std::printf("%*lld ", width - 1, static_cast<long long>(v));
  } else {
    std::printf("%*.*g ", width - 1, 4, v);
  }
}

inline void print_row(const std::vector<double>& vals, int width = 14) {
  for (double v : vals) print_cell(v, width);
  std::fputc('\n', stdout);
}

/// Best-effort CPU model string (Linux /proc/cpuinfo); empty when unknown.
/// Recorded next to throughput numbers so a BENCH_*.json from one host is
/// never silently compared against another host's.
inline std::string cpu_model_string() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "";
  std::string model;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        const char* p = colon + 1;
        while (*p == ' ' || *p == '\t') ++p;
        model = p;
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == '\r')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// Machine-readable output for the perf trajectory: every bench that takes
/// --json=<path> appends rows here and the destructor (or write()) emits
///
///   { "bench": "<name>",
///     "meta": { "<key>": <number-or-string>, ... },   // when set_meta used
///     "rows": [ {"series": "...", "<field>": <number>, ...}, ... ] }
///
/// Numbers are finite doubles (NaN/Inf become null); integral values print
/// without a decimal point so downstream tooling can diff runs textually.
class JsonSeriesWriter {
 public:
  /// A writer with an empty path is disabled: add() is a no-op, nothing is
  /// written. Benches can therefore call it unconditionally.
  JsonSeriesWriter(std::string bench_name, std::string path)
      : bench_(std::move(bench_name)), path_(std::move(path)) {}

  JsonSeriesWriter(const JsonSeriesWriter&) = delete;
  JsonSeriesWriter& operator=(const JsonSeriesWriter&) = delete;

  ~JsonSeriesWriter() {
    try {
      write();
    } catch (...) {  // a destructor must not throw; the error was reported
    }
  }

  bool enabled() const noexcept { return !path_.empty(); }

  /// Records a host/run metadata entry (numeric), emitted once in a
  /// "meta" object ahead of the rows. Later calls with the same key win.
  void set_meta(const std::string& key, double value) {
    if (!enabled()) return;
    set_meta_raw(key, number(value));
  }
  /// String metadata entry (e.g. the CPU model).
  void set_meta(const std::string& key, const std::string& value) {
    if (!enabled()) return;
    set_meta_raw(key, "\"" + escaped(value) + "\"");
  }

  /// Appends one row: a series label plus numeric fields, in call order.
  void add(const std::string& series,
           std::initializer_list<std::pair<const char*, double>> fields) {
    if (!enabled()) return;
    Row row;
    row.series = series;
    row.fields.assign(fields.begin(), fields.end());
    rows_.push_back(std::move(row));
  }

  /// Same, for field lists built at runtime (e.g. gbench counters).
  void add(const std::string& series,
           std::vector<std::pair<std::string, double>> fields) {
    if (!enabled()) return;
    Row row;
    row.series = series;
    for (auto& [k, v] : fields) row.fields.emplace_back(std::move(k), v);
    rows_.push_back(std::move(row));
  }

  /// Writes the file (idempotent; also run by the destructor).
  /// @throws std::runtime_error if the file cannot be written.
  void write() {
    if (!enabled() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("JsonSeriesWriter: cannot open " + path_);
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",", escaped(bench_).c_str());
    if (!meta_.empty()) {
      std::fprintf(f, "\n  \"meta\": {");
      for (std::size_t i = 0; i < meta_.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     escaped(meta_[i].first).c_str(), meta_[i].second.c_str());
      }
      std::fprintf(f, "},");
    }
    std::fprintf(f, "\n  \"rows\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"series\": \"%s\"", i == 0 ? "" : ",",
                   escaped(rows_[i].series).c_str());
      for (const auto& [key, value] : rows_[i].fields) {
        std::fprintf(f, ", \"%s\": %s", escaped(key).c_str(),
                     number(value).c_str());
      }
      std::fputc('}', f);
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok) throw std::runtime_error("JsonSeriesWriter: write failed");
    written_ = true;
    std::printf("wrote %s (%zu rows)\n", path_.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string series;
    std::vector<std::pair<std::string, double>> fields;
  };

  void set_meta_raw(const std::string& key, std::string json_value) {
    for (auto& [k, v] : meta_) {
      if (k == key) {
        v = std::move(json_value);
        return;
      }
    }
    meta_.emplace_back(key, std::move(json_value));
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';  // control chars never appear in series names; flatten
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 &&
        v > -1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return buf;
  }

  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> meta_;  ///< key → JSON
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace ppc::benchutil
