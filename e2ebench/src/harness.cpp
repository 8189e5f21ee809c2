#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace e2e {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

void SpanLog::add(const char* name, Clock::time_point t0, Clock::time_point t1) {
  spans_.push_back({name, std::chrono::duration<double, std::micro>(t0 - epoch_).count(),
                    std::chrono::duration<double, std::micro>(t1 - t0).count()});
}

double SpanLog::total_seconds(std::string_view name) const {
  double us = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) us += s.dur_us;
  return us * 1e-6;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

std::map<std::string, double> read_registry(const sc::telemetry::Registry& registry) {
  std::map<std::string, double> out;
  for (const auto& family : registry.snapshot()) {
    for (const auto& series : family.series) {
      std::string key = family.name;
      if (!series.labels.empty()) {
        key += '{';
        for (std::size_t i = 0; i < series.labels.size(); ++i) {
          if (i) key += ',';
          key += series.labels[i].first + "=" + series.labels[i].second;
        }
        key += '}';
      }
      if (series.counter) {
        const double v = static_cast<double>(series.counter->value());
        out[key] += v;
        if (key != family.name) out[family.name] += v;
      } else if (series.gauge) {
        out[key] = series.gauge->value();
      } else if (series.histogram) {
        out[key + ":count"] += static_cast<double>(series.histogram->count());
        out[key + ":sum"] += series.histogram->sum();
        if (key != family.name) {
          out[family.name + ":count"] += static_cast<double>(series.histogram->count());
          out[family.name + ":sum"] += series.histogram->sum();
        }
      }
    }
  }
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

void drain_tracer(sc::telemetry::Tracer& tracer,
                  std::vector<sc::telemetry::TraceEvent>& out) {
  for (auto& event : tracer.events())
    if (event.phase == 'X') out.push_back(std::move(event));
  tracer.clear();
}

std::vector<double> span_ms(const std::vector<sc::telemetry::TraceEvent>& events,
                            std::string_view name) {
  std::vector<double> ms;
  for (const auto& e : events)
    if (e.name == name) ms.push_back(e.wall_dur_us * 1e-3);
  return ms;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

TempDir::TempDir(const std::filesystem::path& parent, const std::string& name)
    : path_(parent / name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_chrome_trace(const std::filesystem::path& file, const SpanLog& log,
                        const std::vector<sc::telemetry::TraceEvent>& program_events) {
  std::ofstream out(file);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](std::string_view name, const char* cat, int tid, double ts,
                  double dur) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":" << json_string(name) << ",\"cat\":\"" << cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << json_number(ts)
        << ",\"dur\":" << json_number(dur) << "}";
  };
  for (const SpanRecord& s : log.spans()) emit(s.name, "bench", 1, s.start_us, s.dur_us);
  for (const auto& e : program_events)
    emit(e.name, "program", 2, e.wall_us, e.wall_dur_us);
  out << "\n]}\n";
}

}  // namespace e2e
