// Self-tests of the benchmark's own measurement code.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
//
// Exits non-zero if any check fails.
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (false)

std::vector<std::uint64_t> iota(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), std::uint64_t{1});  // 1..n, sorted
  return v;
}

void test_nearest_rank() {
  CHECK(nearest_rank({}, 1, 2) == 0);
  CHECK(nearest_rank(iota(100), 1, 2) == 50);
  CHECK(nearest_rank(iota(100), 99, 100) == 99);
  CHECK(nearest_rank(iota(5), 1, 2) == 3);
  CHECK(nearest_rank(iota(1), 99, 100) == 1);
  CHECK(nearest_rank(iota(1000), 99, 100) == 990);
}

// The highest percentile with at least ten samples beyond it, and the
// sample count it rests on.
void test_top_percentile() {
  TopPercentile t = top_percentile({});
  CHECK(t.samples == 0 && t.level == 50.0);

  t = top_percentile(iota(15));  // no level qualifies: fall back to median
  CHECK(t.samples == 15 && t.level == 50.0 && t.value == 8);

  t = top_percentile(iota(20));
  CHECK(t.level == 50.0 && t.beyond == 10 && t.value == 10);

  t = top_percentile(iota(99));  // p90 would leave only 9 beyond
  CHECK(t.level == 50.0 && t.beyond == 49);

  t = top_percentile(iota(100));
  CHECK(t.level == 90.0 && t.beyond == 10 && t.value == 90);

  t = top_percentile(iota(1000));
  CHECK(t.level == 99.0 && t.beyond == 10 && t.value == 990);

  t = top_percentile(iota(1999));  // p99.9 would leave only 1 beyond
  CHECK(t.level == 99.0 && t.beyond == 19 && t.value == 1980);

  t = top_percentile(iota(10000));
  CHECK(t.samples == 10000 && t.level > 99.89 && t.level < 99.91 &&
        t.beyond == 10 && t.value == 9990);
}

Span span(std::int64_t start, std::int64_t end) {
  Span s;
  s.start = start;
  s.end = end;
  return s;
}

// Self time subtracts the union of the children, clipped to the parent.
void test_self_time() {
  const Span parent = span(0, 100);
  CHECK(self_time(parent, {}) == 100);
  CHECK(self_time(parent, {span(0, 100)}) == 0);
  CHECK(self_time(parent, {span(10, 30), span(20, 50)}) == 60);  // overlap
  CHECK(self_time(parent, {span(20, 50), span(10, 30), span(40, 45)}) == 60);
  CHECK(self_time(parent, {span(-10, 5), span(90, 120)}) == 85);  // clipped
  CHECK(self_time(parent, {span(10, 30), span(20, 50), span(40, 45),
                           span(-10, 5), span(90, 120)}) == 45);
  CHECK(self_time(parent, {span(200, 300)}) == 100);  // outside entirely
}

// Transit pairs a handler with its causing send; reply transit pairs a
// continuation with the reply call of the same request.
void test_analyze() {
  std::vector<Span> spans = {
      {1, 0, 1, 0, 40, SpanName::kRequest},
      {2, 1, 1, 0, 3, SpanName::kRequestCall},
      {3, 2, 1, 10, 20, SpanName::kHandler},
      {4, 3, 1, 12, 15, SpanName::kSendCall},
      {5, 3, 1, 14, 18, SpanName::kReplyCall},
      {6, 0, 1, 25, 26, SpanName::kContinuation},
  };
  const LayerSamples l = analyze(spans);
  CHECK(l.transit_ns.size() == 1 && l.transit_ns[0] == 7);
  CHECK(l.reply_transit_ns.size() == 1 && l.reply_transit_ns[0] == 11);
  // Handler 10..20 minus the union of 12..15 and 14..18 = 10 - 6.
  CHECK(l.handler_self_ns.size() == 2 && l.handler_self_ns[0] == 4 &&
        l.handler_self_ns[1] == 1);
  CHECK(l.duration_ns[static_cast<std::size_t>(SpanName::kSendCall)].size() ==
        1);
}

// The rpc_chase shape on SimMachine, every request traced: each request
// span is tiled exactly, in virtual ns, by its request call, the transit to
// the server, the server handler up to its reply call, and the reply (call
// plus transit) up to the continuation's start — through migrations and
// stale-descriptor forwarding. A co-located reply runs the continuation
// inside the reply call, which is why the last piece starts at the call.
void test_rpc_tiling_on_sim() {
  RpcShape shape;
  shape.machine = hal::MachineKind::kSim;
  shape.nodes = 8;
  shape.servers = 4;
  shape.requests_per_caller = 60;
  shape.migrate_every = 4;
  Tracer::begin_sample(true, 1);
  Sample s = run_rpc_shape(SampleSpec{42}, shape);
  const std::vector<Span> spans = Tracer::collect();
  CHECK(s.failed == 0);
  CHECK(Tracer::dropped() == 0);
  CHECK(s.reports.front().total.get(hal::Stat::kMessagesForwarded) > 0);

  std::unordered_map<std::uint64_t, const Span*> child_of, cont_of;
  for (const Span& sp : spans) {
    if (sp.name == SpanName::kContinuation) {
      cont_of[sp.req] = &sp;
    } else if (sp.parent != 0 && sp.name != SpanName::kMigrateCall) {
      child_of[sp.parent] = &sp;
    }
  }
  const auto child = [&](const Span* p) -> const Span* {
    if (p == nullptr) return nullptr;
    const auto it = child_of.find(p->id);
    return it == child_of.end() ? nullptr : it->second;
  };
  std::uint64_t roots = 0, tiled = 0;
  std::int64_t transit = 0, reply_transit = 0;
  for (const Span& r : spans) {
    if (r.name != SpanName::kRequest) continue;
    ++roots;
    const Span* call = child(&r);
    const Span* h = child(call);
    const Span* reply = child(h);
    const auto c = cont_of.find(r.id);
    if (reply == nullptr || c == cont_of.end()) continue;
    const Span* cont = c->second;
    CHECK(call->name == SpanName::kRequestCall &&
          h->name == SpanName::kHandler &&
          reply->name == SpanName::kReplyCall);
    const std::int64_t pieces[] = {
        call->end - call->start, h->start - call->end,
        reply->start - h->start, cont->start - reply->start};
    bool ordered = true;
    for (const std::int64_t p : pieces) ordered = ordered && p >= 0;
    CHECK(ordered);
    if (ordered && call->start == r.start && cont->start == r.end &&
        pieces[0] + pieces[1] + pieces[2] + pieces[3] == r.end - r.start) {
      ++tiled;
    }
    transit += pieces[1];
    reply_transit += pieces[3];
  }
  CHECK(roots == std::uint64_t{shape.nodes} * shape.requests_per_caller);
  CHECK(tiled == roots);

  // analyze() derives the same transits from the same spans.
  const LayerSamples l = analyze(spans);
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return static_cast<std::int64_t>(
        std::accumulate(v.begin(), v.end(), std::uint64_t{0}));
  };
  CHECK(l.transit_ns.size() == roots && sum(l.transit_ns) == transit);
  CHECK(l.reply_transit_ns.size() == roots &&
        sum(l.reply_transit_ns) == reply_transit);
  Tracer::begin_sample(false, 1);
}

}  // namespace

int main() {
  test_nearest_rank();
  test_top_percentile();
  test_self_time();
  test_analyze();
  test_rpc_tiling_on_sim();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
