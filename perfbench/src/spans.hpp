// Span tracing for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own behaviours, around the calls
// they make into the runtime (send, request, reply, create, migrate) and
// around their own handler bodies; nothing inside the runtime is traced.
// Each span carries its name, start and end on the machine clock
// (Context::now: virtual ns under SimMachine, calibrated wall ns on the
// threaded executors), the id of the span that caused it and the id of the
// request it belongs to. A request is sampled when it starts (root()); the
// spans of an unsampled request are never recorded, and with tracing off
// root() returns 0 for every request, so the only cost left on the
// untraced path is a branch per call site.
//
// Storage is preallocated: a fixed pool of per-thread logs, each reserved
// once, handed out to recording threads for one sample (begin_sample) and
// read back after Runtime::run() has joined them (collect). A full log
// drops further spans and counts them.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/api.hpp"

namespace perfbench {

enum class SpanName : std::uint32_t {
  kRequest,       ///< root: request issued -> its reply continuation starts
  kHandler,       ///< a benchmark behaviour's method body
  kContinuation,  ///< a join-continuation body
  kSendCall,      ///< Context::send
  kRequestCall,   ///< Context::request
  kReplyCall,     ///< Context::reply / reply_to
  kCreateCall,    ///< Context::create / create_on
  kMigrateCall,   ///< Context::migrate_to
  kCount,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = none
  std::uint64_t req = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  SpanName name = SpanName::kHandler;
};

class Tracer {
 public:
  /// Start a sample: tracing on or off, every `sample_every`-th request
  /// recorded. Discards the spans of the previous sample.
  static void begin_sample(bool traced, std::uint32_t sample_every);
  static bool enabled() noexcept;

  /// Request id for a new request: a fresh span id when the request is
  /// sampled, 0 otherwise.
  static std::uint64_t root();
  /// A fresh span id (only meaningful inside a sampled request).
  static std::uint64_t new_id();
  static void record(const Span& s);

  /// All spans recorded since begin_sample (call after run() returned).
  static std::vector<Span> collect();
  static std::uint64_t dropped();
};

/// Scoped span on the machine clock; records nothing when req == 0.
class ScopedSpan {
 public:
  ScopedSpan(hal::Context& ctx, SpanName name, std::uint64_t req,
             std::uint64_t parent)
      : ctx_(ctx), req_(req) {
    if (req_ != 0) {
      span_.id = Tracer::new_id();
      span_.parent = parent;
      span_.req = req;
      span_.name = name;
      span_.start = static_cast<std::int64_t>(ctx.now());
    }
  }
  ~ScopedSpan() {
    if (req_ != 0) {
      span_.end = static_cast<std::int64_t>(ctx_.now());
      Tracer::record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span's id, to pass as the parent of what it causes (0 if off).
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  hal::Context& ctx_;
  std::uint64_t req_;
  Span span_;
};

/// Duration of `parent` not covered by any of `children` (each clipped to
/// the parent's interval; overlapping children count once).
std::int64_t self_time(const Span& parent, std::vector<Span> children);

/// Per-layer samples derived from one sample's spans.
struct LayerSamples {
  /// Span durations, indexed by SpanName.
  std::vector<std::uint64_t>
      duration_ns[static_cast<std::size_t>(SpanName::kCount)];
  /// send/request call return -> receiving handler start (0 if the handler
  /// started first)
  std::vector<std::uint64_t> transit_ns;
  /// reply call start -> continuation start. Measured from the call's start
  /// because a reply to a co-located continuation runs it inside the call.
  std::vector<std::uint64_t> reply_transit_ns;
  std::vector<std::uint64_t> handler_self_ns;  ///< handler minus its calls
  void append(const LayerSamples& other);
};

/// Derive span durations, transits and handler self times from spans.
/// Transit pairs a handler with the send/request span that caused it (its
/// parent); reply transit pairs a continuation with the last reply call of
/// the same request.
LayerSamples analyze(const std::vector<Span>& spans);

}  // namespace perfbench
