// Shared plumbing of the end-to-end benchmark: options, the benchmark's own
// spans around public calls, result/metric collection, reads of the
// program's telemetry registry and tracer, and scratch directories.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Process start as seen by the benchmark (first static initialised in the
/// harness library); set-up times are measured from here.
Clock::time_point process_start();

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< Scratch stores; removed at exit.
  std::filesystem::path out_dir;   ///< Traced run: Chrome traces + layer tables.
};

/// One span the benchmark recorded around a call into the program.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< Since the log's epoch.
  double dur_us = 0.0;
};

/// In-memory span log; written out as a Chrome trace at the end of a traced
/// run.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), name_(name), t0_(Clock::now()) {}
    ~Scope() { log_.add(name_, t0_, Clock::now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* name_;
    Clock::time_point t0_;
  };

  void add(const char* name, Clock::time_point t0, Clock::time_point t1);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Summed duration of spans with this name, seconds.
  double total_seconds(std::string_view name) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, operation counts and the
/// metric set selected by --trace.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> info;  ///< Free-form facts for the env line.

  /// Records a failed correctness check (the run then reports correct=false).
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

// -- Program telemetry, read from outside ------------------------------------

/// Every counter/gauge series plus histogram count/sum, flattened to
/// "name" (summed over label sets), "name{k=v,...}", "name:count" and
/// "name:sum" keys, so two readings can be subtracted.
std::map<std::string, double> read_registry(const sc::telemetry::Registry& registry);
/// after[key] - before[key] (missing keys read as 0).
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key);

/// Drains the program's tracer: appends its complete spans to `out` and
/// clears the ring so a long run never overwrites unread events.
void drain_tracer(sc::telemetry::Tracer& tracer, std::vector<sc::telemetry::TraceEvent>& out);
/// Wall durations (ms) of drained program spans with this name.
std::vector<double> span_ms(const std::vector<sc::telemetry::TraceEvent>& events,
                            std::string_view name);

// -- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile of unsorted samples (q in [0,1]); 0 if empty.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// -- Call counts (link-time wrappers, call_counts.cpp) -----------------------

struct CallCounts {
  std::uint64_t verifies = 0;     ///< secp256k1::verify calls (every ECDSA verify).
  std::uint64_t signs = 0;        ///< KeyPair::sign calls.
  std::uint64_t tx_verifies = 0;  ///< Transaction::verify_signature calls (unbatched).
  std::uint64_t fsyncs = 0;       ///< fsync calls...
  double fsync_s = 0.0;           ///< ...and their summed wall time.
};
inline CallCounts operator-(const CallCounts& a, const CallCounts& b) {
  return {a.verifies - b.verifies, a.signs - b.signs, a.tx_verifies - b.tx_verifies,
          a.fsyncs - b.fsyncs, a.fsync_s - b.fsync_s};
}
CallCounts call_counts();

// -- Scratch directories -------------------------------------------------------

/// A directory under the run's work dir, removed (recursively) on scope exit.
class TempDir {
 public:
  TempDir(const std::filesystem::path& parent, const std::string& name);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::filesystem::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// -- Output --------------------------------------------------------------------

/// Writes the benchmark's spans plus the program's drained spans as one
/// Chrome trace_event JSON file.
void write_chrome_trace(const std::filesystem::path& file, const SpanLog& log,
                        const std::vector<sc::telemetry::TraceEvent>& program_events);

/// JSON string literal (quotes and escapes).
std::string json_string(std::string_view s);
/// A number with all its digits (%.17g); non-finite values print as 0.
std::string json_number(double v);

}  // namespace e2e
