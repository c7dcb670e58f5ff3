#include "trace.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// Raw spans kept per thread; later spans are only aggregated.
constexpr size_t kMaxKeptSpansPerThread = 50000;

struct RawSpan {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t bytes;
};

struct Frame {
  const char* name;
  uint32_t flags;
  uint64_t bytes;
  uint64_t id;
  uint64_t parent;
  uint64_t start_ns;
  uint64_t child_ns = 0;
  uint64_t desc_reads = 0;
  uint64_t desc_read_ns = 0;
  uint64_t desc_write_bytes = 0;
};

struct ThreadTrace {
  uint32_t tid = 0;
  uint64_t seq = 0;
  std::vector<Frame> stack;
  std::unordered_map<const char*, SpanAgg> aggs;
  std::vector<RawSpan> raw;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // never shrinks
std::deque<std::string> g_names;                      // interned names

thread_local ThreadTrace* tl_trace = nullptr;

ThreadTrace* Local() {
  if (tl_trace == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_threads.push_back(std::make_unique<ThreadTrace>());
    tl_trace = g_threads.back().get();
    tl_trace->tid = static_cast<uint32_t>(g_threads.size());
  }
  return tl_trace;
}

void EscapeInto(const char* s, std::string* out) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanAgg::Add(const SpanAgg& o) {
  count += o.count;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  bytes += o.bytes;
  desc_reads += o.desc_reads;
  desc_read_ns += o.desc_read_ns;
  desc_write_bytes += o.desc_write_bytes;
}

const char* Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const std::string& n : g_names) {
    if (n == name) return n.c_str();
  }
  g_names.push_back(name);
  return g_names.back().c_str();
}

std::map<std::string, SpanAgg> Tracer::Aggregate() {
  std::map<std::string, SpanAgg> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_threads) {
    for (const auto& [name, agg] : t->aggs) out[name].Add(agg);
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path,
                        const std::string& header_json) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  std::string line;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_threads) {
    for (const RawSpan& s : t->raw) {
      line = "{\"name\":\"";
      EscapeInto(s.name, &line);
      line += "\",\"tid\":" + std::to_string(t->tid) +
              ",\"id\":" + std::to_string(s.id) +
              ",\"parent\":" + std::to_string(s.parent) +
              ",\"start_ns\":" + std::to_string(s.start_ns) +
              ",\"end_ns\":" + std::to_string(s.end_ns) +
              ",\"bytes\":" + std::to_string(s.bytes) + "}\n";
      std::fputs(line.c_str(), f);
    }
  }
  return std::fclose(f) == 0;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_threads) {
    t->aggs.clear();
    t->raw.clear();
  }
}

Span::Span(const char* name, uint32_t flags, uint64_t bytes)
    : active_(Tracer::enabled()) {
  if (!active_) return;
  ThreadTrace* t = Local();
  Frame f;
  f.name = name;
  f.flags = flags;
  f.bytes = bytes;
  // Ids are unique per process: thread number in the high bits.
  f.id = (static_cast<uint64_t>(t->tid) << 40) | ++t->seq;
  f.parent = t->stack.empty() ? 0 : t->stack.back().id;
  f.start_ns = NowNs();
  t->stack.push_back(f);
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadTrace* t = tl_trace;
  Frame f = t->stack.back();
  t->stack.pop_back();
  const uint64_t dur = end - f.start_ns;

  SpanAgg& a = t->aggs[f.name];
  a.count++;
  a.total_ns += dur;
  a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  a.bytes += f.bytes;
  a.desc_reads += f.desc_reads;
  a.desc_read_ns += f.desc_read_ns;
  a.desc_write_bytes += f.desc_write_bytes;

  if (!t->stack.empty()) {
    Frame& p = t->stack.back();
    p.child_ns += dur;
    p.desc_reads += f.desc_reads + ((f.flags & kSpanDevRead) ? 1 : 0);
    p.desc_read_ns += f.desc_read_ns + ((f.flags & kSpanDevRead) ? dur : 0);
    p.desc_write_bytes +=
        f.desc_write_bytes + ((f.flags & kSpanDevWrite) ? f.bytes : 0);
  }

  if (t->raw.size() < kMaxKeptSpansPerThread) {
    t->raw.push_back({f.name, f.id, f.parent, f.start_ns, end, f.bytes});
  }
}

}  // namespace perfbench
