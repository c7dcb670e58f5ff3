// Span tracing for the benchmark, recorded from OUTSIDE the engine: the
// benchmark wraps each public call it makes (Get, Write, cursor
// Seek/Next, Open, ...) and every device operation the engine issues
// through the DbOptions::wrap_device decorator (timed_device.h) in a
// Span. Nothing inside src/ is instrumented.
//
// Each span has a name, start, end and parent; the parent comes from a
// thread-local stack. Self time is a span's duration minus the time its
// direct children cover. Aggregates (count, total, self, plus what the
// span's descendants did on the devices) are folded online when a span
// closes, so a long run costs no memory for them; raw spans are kept in
// memory up to a fixed cap and written out at exit.
//
// Tracing is off unless Tracer::SetEnabled(true): a disabled Span costs
// one relaxed atomic load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// What a span is, beyond its name — lets parents learn what their
/// descendants did on the devices without string matching.
enum SpanFlags : uint32_t {
  kSpanPlain = 0,
  kSpanDevRead = 1u << 0,     ///< Device::Read or ReadMapped
  kSpanDevWrite = 1u << 1,    ///< Device::Write (bytes = payload)
};

/// Everything known about one span name after the run.
struct SpanAgg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t bytes = 0;  ///< the spans' own byte counts (device spans)
  // Descendant device activity (all depths below the span).
  uint64_t desc_reads = 0;
  uint64_t desc_read_ns = 0;
  uint64_t desc_write_bytes = 0;

  void Add(const SpanAgg& o);
  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / count;
  }
  double self_us() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 / count;
  }
};

class Tracer {
 public:
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Returns a pointer that stays valid for the life of the process —
  /// spans store name pointers, and decorators that build names at run
  /// time may be gone by the time spans are written out.
  static const char* Intern(const std::string& name);

  /// Aggregates over every thread that ever recorded a span, by name.
  /// Call only after the recording threads have been joined.
  static std::map<std::string, SpanAgg> Aggregate();

  /// Writes the kept raw spans as JSON lines ({"name","tid","id",
  /// "parent","start_ns","end_ns","bytes"}), preceded by one header line
  /// holding `header_json`. Returns false on I/O failure.
  static bool WriteSpans(const std::string& path,
                         const std::string& header_json);

  /// Forgets every aggregate and raw span (between untraced and traced
  /// phases). Call only while no span is open on any thread.
  static void Reset();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span. `name` must come from a string literal or Tracer::Intern.
class Span {
 public:
  explicit Span(const char* name, uint32_t flags = kSpanPlain,
                uint64_t bytes = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
