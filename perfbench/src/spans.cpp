#include "spans.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <unordered_map>

namespace perfbench {
namespace {

// Logs serve the threads that record in one sample: the node threads of a
// ThreadMachine, the workers of an MnMachine, or the main thread under
// SimMachine. Eight covers every workload's executor (at most four
// workers or nodes plus the main thread).
constexpr std::size_t kLogs = 8;
constexpr std::size_t kLogCapacity = std::size_t{1} << 17;

struct Log {
  std::vector<Span> spans;
  std::uint64_t next_id = 0;
  std::uint64_t roots = 0;
  std::uint64_t dropped = 0;
};

std::array<Log, kLogs> g_logs;
std::atomic<std::uint32_t> g_next_log{0};
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_orphan_drops{0};
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_every{1};

struct ThreadLog {
  std::uint64_t generation = ~std::uint64_t{0};
  Log* log = nullptr;
  std::uint64_t index = 0;
};
thread_local ThreadLog t_log;

// The calling thread's log for the current sample; a thread that first
// records after a begin_sample claims the next free one.
Log* my_log() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_log.generation != gen) {
    t_log.generation = gen;
    const std::uint32_t i = g_next_log.fetch_add(1, std::memory_order_relaxed);
    t_log.log = i < kLogs ? &g_logs[i] : nullptr;
    t_log.index = i;
  }
  return t_log.log;
}

}  // namespace

void Tracer::begin_sample(bool traced, std::uint32_t sample_every) {
  for (Log& l : g_logs) {
    l.spans.clear();
    if (traced && l.spans.capacity() < kLogCapacity) {
      l.spans.reserve(kLogCapacity);
    }
    l.next_id = 0;
    l.roots = 0;
    l.dropped = 0;
  }
  g_orphan_drops.store(0, std::memory_order_relaxed);
  g_next_log.store(0, std::memory_order_relaxed);
  g_every.store(sample_every == 0 ? 1 : sample_every,
                std::memory_order_relaxed);
  g_enabled.store(traced, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
}

bool Tracer::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::new_id() {
  Log* l = my_log();
  if (l == nullptr) return 0;
  // Ids are unique within a sample: the log index in the high bits.
  return ((t_log.index + 1) << 40) | ++l->next_id;
}

std::uint64_t Tracer::root() {
  if (!enabled()) return 0;
  Log* l = my_log();
  if (l == nullptr) return 0;
  if (l->roots++ % g_every.load(std::memory_order_relaxed) != 0) return 0;
  return new_id();
}

void Tracer::record(const Span& s) {
  Log* l = my_log();
  if (l == nullptr) {
    g_orphan_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (l->spans.size() == l->spans.capacity()) {
    ++l->dropped;  // never reallocate while a run is being measured
    return;
  }
  l->spans.push_back(s);
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> out;
  const std::size_t used =
      std::min<std::size_t>(g_next_log.load(std::memory_order_acquire), kLogs);
  for (std::size_t i = 0; i < used; ++i) {
    out.insert(out.end(), g_logs[i].spans.begin(), g_logs[i].spans.end());
  }
  return out;
}

std::uint64_t Tracer::dropped() {
  std::uint64_t n = g_orphan_drops.load(std::memory_order_relaxed);
  for (const Log& l : g_logs) n += l.dropped;
  return n;
}

std::int64_t self_time(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;  // end of the union covered so far
  for (const Span& c : children) {
    if (c.end <= c.start) continue;
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.start) - covered;
}

void LayerSamples::append(const LayerSamples& other) {
  for (std::size_t i = 0; i < std::size(duration_ns); ++i) {
    duration_ns[i].insert(duration_ns[i].end(), other.duration_ns[i].begin(),
                      other.duration_ns[i].end());
  }
  transit_ns.insert(transit_ns.end(), other.transit_ns.begin(),
                    other.transit_ns.end());
  reply_transit_ns.insert(reply_transit_ns.end(),
                          other.reply_transit_ns.begin(),
                          other.reply_transit_ns.end());
  handler_self_ns.insert(handler_self_ns.end(), other.handler_self_ns.begin(),
                         other.handler_self_ns.end());
}

LayerSamples analyze(const std::vector<Span>& spans) {
  LayerSamples out;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::size_t> reply_by_req;
  std::unordered_map<std::uint64_t, std::vector<Span>> calls_by_parent;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_id.emplace(s.id, i);
    const auto k = static_cast<std::size_t>(s.name);
    const bool call = s.name != SpanName::kRequest &&
                      s.name != SpanName::kHandler &&
                      s.name != SpanName::kContinuation;
    if (s.end >= s.start) {
      out.duration_ns[k].push_back(static_cast<std::uint64_t>(s.end - s.start));
    }
    if (call && s.parent != 0) calls_by_parent[s.parent].push_back(s);
    if (s.name == SpanName::kReplyCall) {
      // A join with several slots fires on its last reply.
      const auto [it, fresh] = reply_by_req.emplace(s.req, i);
      if (!fresh && spans[it->second].start < s.start) it->second = i;
    }
  }
  for (const Span& s : spans) {
    if (s.name == SpanName::kHandler && s.parent != 0) {
      const auto it = by_id.find(s.parent);
      if (it != by_id.end()) {
        const Span& cause = spans[it->second];
        // On the threaded executors a receiver can start before the
        // sender's call has returned; that transit counts as 0.
        if (cause.name == SpanName::kSendCall ||
            cause.name == SpanName::kRequestCall) {
          out.transit_ns.push_back(static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, s.start - cause.end)));
        }
      }
    }
    if (s.name == SpanName::kContinuation) {
      const auto it = reply_by_req.find(s.req);
      if (it != reply_by_req.end() && s.start >= spans[it->second].start) {
        out.reply_transit_ns.push_back(
            static_cast<std::uint64_t>(s.start - spans[it->second].start));
      }
    }
    if (s.name == SpanName::kHandler || s.name == SpanName::kContinuation) {
      const auto it = calls_by_parent.find(s.id);
      const std::int64_t self =
          it == calls_by_parent.end() ? s.end - s.start
                                      : self_time(s, it->second);
      if (self >= 0) {
        out.handler_self_ns.push_back(static_cast<std::uint64_t>(self));
      }
    }
  }
  return out;
}

}  // namespace perfbench
