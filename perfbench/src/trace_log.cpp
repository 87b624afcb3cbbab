#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "traced.h"

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

// Every buffer ever registered; each is written only by its owning thread.
struct Directory {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Directory& directory() {
  static Directory dir;
  return dir;
}

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Directory& dir = directory();
    const std::scoped_lock lock(dir.mutex);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = static_cast<std::uint32_t>(dir.buffers.size());
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    dir.buffers.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_span(const Span& span) {
  ThreadBuffer& buffer = this_thread_buffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> collect_spans() {
  Directory& dir = directory();
  const std::scoped_lock lock(dir.mutex);
  std::vector<Span> out;
  for (const auto& b : dir.buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::uint64_t origin_ns) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace file '" + path + "'");
  os << "{\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"fedvr\",\"ph\":\"X\","
                  "\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"items\":%llu}}",
                  i > 0 ? "," : "",
                  kLayerNames[static_cast<std::size_t>(s.layer)].data(),
                  s.thread, static_cast<double>(s.start_ns - origin_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.items));
    os << line;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!os.flush()) {
    throw std::runtime_error("cannot write trace file '" + path + "'");
  }
}

}  // namespace perfbench
