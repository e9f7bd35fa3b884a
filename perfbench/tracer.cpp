#include "tracer.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

thread_local bool t_on = false;
thread_local std::uint64_t t_op = 0;
thread_local std::uint64_t t_open = 0;  // innermost open span id

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
const Clock::time_point g_epoch = Clock::now();

double micros_after_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

// Small per-thread ordinal for span records.
std::uint32_t thread_ordinal() {
  thread_local const std::uint32_t ordinal =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add(const SpanRecord& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard lock(mutex_);
    all = spans_;
  }
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  micros_after_epoch(s.start),
                  std::chrono::duration<double, std::micro>(s.end - s.start)
                      .count(),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

ScopedTracing::ScopedTracing(bool on, std::uint64_t op)
    : prev_on_(t_on), prev_op_(t_op) {
  t_on = on;
  t_op = op;
}

ScopedTracing::~ScopedTracing() {
  t_on = prev_on_;
  t_op = prev_op_;
}

ScopedSpan::ScopedSpan(const char* name) : on_(t_on) {
  if (!on_) return;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_open;
  record_.op = t_op;
  record_.thread = thread_ordinal();
  prev_open_ = t_open;
  t_open = record_.id;
  record_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  record_.end = Clock::now();
  t_open = prev_open_;
  Tracer::instance().add(record_);
}

}  // namespace perfbench
