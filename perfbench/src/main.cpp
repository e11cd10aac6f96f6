// halbench: the repository benchmark.
//
//   halbench --workload <storm|rpc_chase|fib_lb|sim_paper> --seed <n>
//            --seconds <s> --trace <0|1> [--spans <file>]
//
// Repeats checked samples of one workload for the given time and prints,
// as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end figures, measured with
// span tracing off. With --trace 1, untraced and traced samples alternate;
// the metrics are the per-layer figures from the traced samples and
// trace.overhead_pct, the traced run time over the untraced one. Earlier
// stdout lines echo the configuration each runtime ran with and progress
// per sample. With --spans, a traced run writes the spans of its last
// traced sample to <file>, one JSON object per line. The program reads no
// environment variable: its only inputs are the four arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Sample (*run)(const SampleSpec&);
  std::uint32_t sample_every;  ///< trace one request in this many
};

constexpr Workload kWorkloads[] = {
    {"storm", run_storm, 16},
    {"rpc_chase", run_rpc_chase, 4},
    {"fib_lb", run_fib_lb, 4},
    {"sim_paper", run_sim_paper, 1},
};

constexpr int kMinSamples = 3;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "halbench: %s\nusage: halbench --workload "
               "<storm|rpc_chase|fib_lb|sim_paper> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  const char* spans_out = nullptr;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_secs = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const char* key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t v = 0;
    if (std::strcmp(key, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (std::strcmp(key, "--seed") == 0 && parse_u64(val, v)) {
      a.seed = v;
      have_seed = true;
    } else if (std::strcmp(key, "--seconds") == 0 && parse_u64(val, v) &&
               v >= 1 && v <= 600) {
      a.seconds = v;
      have_secs = true;
    } else if (std::strcmp(key, "--trace") == 0 && parse_u64(val, v) &&
               v <= 1) {
      a.trace = v == 1;
      have_trace = true;
    } else if (std::strcmp(key, "--spans") == 0) {
      a.spans_out = val;
    } else {
      usage("bad argument");
    }
  }
  if (a.workload == nullptr || !have_seed || !have_secs || !have_trace) {
    usage("all four arguments are required");
  }
  return a;
}

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double share(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> end_to_end(const std::vector<Sample>& samples,
                               double paper_err_pct) {
  // Every figure is a median over the run's samples; the latency
  // percentiles are taken per sample first, so one disturbed sample moves
  // them no more than it moves the throughput.
  std::vector<double> setup, run, tput, rps, p50, p90, top;
  for (const Sample& s : samples) {
    setup.push_back(s.setup_s);
    run.push_back(s.run_s);
    tput.push_back(static_cast<double>(s.msgs) / s.run_s);
    rps.push_back(static_cast<double>(s.requests) / s.run_s);
    p50.push_back(static_cast<double>(s.rtt_p50_ns) / 1e3);
    p90.push_back(static_cast<double>(s.rtt_p90_ns) / 1e3);
    top.push_back(static_cast<double>(s.rtt_top.value) / 1e3);
  }
  // The tail at the highest percentile with ten samples beyond it, with
  // its per-sample count (informational; not a bounded metric).
  std::printf(
      "{\"latency\": {\"rtt_samples_per_sample\": %llu, "
      "\"top_percentile\": %.4f, \"rtt_top_us\": %.3f}}\n",
      static_cast<unsigned long long>(samples.front().rtt_top.samples),
      samples.front().rtt_top.level, median(top));
  return {
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"makespan_s", median(run), "s"},
      {"throughput_msgs_per_s", median(tput), "1/s"},
      {"requests_per_s", median(rps), "1/s"},
      {"rtt_p50_us", median(p50), "us"},
      {"rtt_p90_us", median(p90), "us"},
      {"paper_err_pct", paper_err_pct, "%"},
  };
}

std::vector<Metric> per_layer(const std::vector<Sample>& traced,
                              const std::vector<Sample>& untraced,
                              const std::vector<Metric>& fidelity) {
  using hal::Stat;
  using hal::obs::Probe;
  LayerSamples layers;
  hal::StatBlock stats;
  hal::obs::ProbeRecorder probes;
  std::uint64_t msgs = 0, allocs = 0, spans = 0, drops = 0;
  double cpu = 0, wall = 0;
  std::int64_t vol = 0, invol = 0;
  std::vector<double> ctor_ms, spawn_ms, traced_run, untraced_run, p99, top;
  for (const Sample& s : traced) {
    layers.append(s.layers);
    for (const auto& r : s.reports) {
      stats += r.total;
      probes += r.probes;
    }
    msgs += s.msgs;
    allocs += s.allocs;
    spans += s.spans;
    drops += s.span_drops;
    cpu += s.cpu_s;
    wall += s.run_s;
    vol += s.vol_switches;
    invol += s.invol_switches;
    ctor_ms.push_back(s.ctor_s * 1e3);
    spawn_ms.push_back((s.setup_s - s.ctor_s) * 1e3);
    traced_run.push_back(s.run_s);
  }
  for (const Sample& s : untraced) {
    untraced_run.push_back(s.run_s);
    p99.push_back(static_cast<double>(s.rtt_p99_ns) / 1e3);
    top.push_back(static_cast<double>(s.rtt_top.value) / 1e3);
  }
  const double n = static_cast<double>(traced.size());
  const auto call = [&](SpanName name) {
    return sorted(layers.duration_ns[static_cast<std::size_t>(name)]);
  };
  const auto p = [](const std::vector<std::uint64_t>& v, std::uint64_t num,
                    std::uint64_t den) {
    return static_cast<double>(nearest_rank(v, num, den));
  };
  const auto probe = [&](Probe which, double q) {
    return static_cast<double>(probes.histogram(which).quantile(q));
  };
  const auto get = [&](Stat s) { return stats.get(s); };
  const auto per_kmsg = [&](std::int64_t count) {
    return msgs == 0 ? 0.0
                     : static_cast<double>(count) * 1e3 /
                           static_cast<double>(msgs);
  };
  const std::vector<std::uint64_t> send = call(SpanName::kSendCall);
  const std::vector<std::uint64_t> transit = sorted(layers.transit_ns);
  const std::uint64_t flushes = get(Stat::kWireFlushFill) +
                                get(Stat::kWireFlushTimer) +
                                get(Stat::kWireFlushIdle) +
                                get(Stat::kWireFlushBarrier);
  std::vector<Metric> out = {
      {"runtime.send_call_ns.p50", p(send, 1, 2), "ns"},
      {"runtime.send_call_ns.p99", p(send, 99, 100), "ns"},
      {"runtime.request_call_ns.p50", p(call(SpanName::kRequestCall), 1, 2),
       "ns"},
      {"runtime.reply_call_ns.p50", p(call(SpanName::kReplyCall), 1, 2), "ns"},
      {"runtime.create_call_ns.p50", p(call(SpanName::kCreateCall), 1, 2),
       "ns"},
      {"runtime.migrate_call_ns.p50", p(call(SpanName::kMigrateCall), 1, 2),
       "ns"},
      {"runtime.transit_ns.p50", p(transit, 1, 2), "ns"},
      {"runtime.transit_ns.p99", p(transit, 99, 100), "ns"},
      {"runtime.reply_transit_ns.p50", p(sorted(layers.reply_transit_ns), 1, 2),
       "ns"},
      {"runtime.handler_self_ns.p50", p(sorted(layers.handler_self_ns), 1, 2),
       "ns"},
      {"runtime.request_ns.p50", p(call(SpanName::kRequest), 1, 2), "ns"},
      {"runtime.mailbox_residency_ns.p50", probe(Probe::kMailboxResidency, 0.5),
       "ns"},
      {"runtime.mailbox_residency_ns.p99",
       probe(Probe::kMailboxResidency, 0.99), "ns"},
      {"runtime.dispatch_batch_items.p50", probe(Probe::kDispatchBatch, 0.5),
       "items"},
      {"runtime.allocs_per_msg", share(allocs, msgs), "count"},
      {"runtime.migration_ns.p50", probe(Probe::kMigration, 0.5), "ns"},
      {"runtime.join_round_trip_ns.p50", probe(Probe::kJoinRoundTrip, 0.5),
       "ns"},
      {"name.stale_share",
       share(get(Stat::kMessagesForwarded), get(Stat::kMessagesSentRemote)),
       "share"},
      {"name.cache_hit_share",
       share(get(Stat::kDescriptorCacheHits), get(Stat::kMessagesSentRemote)),
       "share"},
      {"name.fir_sent", static_cast<double>(get(Stat::kFirSent)) / n, "count"},
      {"name.parked_msgs", static_cast<double>(get(Stat::kMessagesParked)) / n,
       "count"},
      {"name.fir_rtt_ns.p50", probe(Probe::kFirRoundTrip, 0.5), "ns"},
      {"am.batch.msgs_per_frame",
       share(get(Stat::kWireMsgsCoalesced), get(Stat::kWireFramesSent)),
       "msgs"},
      {"am.batch.frame_fill.p50", probe(Probe::kFrameFill, 0.5), "msgs"},
      {"am.batch.flush_fill_share", share(get(Stat::kWireFlushFill), flushes),
       "share"},
      {"am.batch.flush_timer_share", share(get(Stat::kWireFlushTimer), flushes),
       "share"},
      {"am.batch.flush_idle_share", share(get(Stat::kWireFlushIdle), flushes),
       "share"},
      {"am.batch.flush_barrier_share",
       share(get(Stat::kWireFlushBarrier), flushes), "share"},
      {"am.exec.cpu_per_wall", wall > 0 ? cpu / wall : 0.0, "share"},
      {"am.exec.cpu_us_per_msg",
       msgs == 0 ? 0.0 : cpu * 1e6 / static_cast<double>(msgs), "us"},
      {"am.exec.vol_ctx_switches_per_kmsg", per_kmsg(vol), "count"},
      {"am.exec.invol_ctx_switches_per_kmsg", per_kmsg(invol), "count"},
      {"am.exec.steal_requests",
       static_cast<double>(get(Stat::kStealRequestsSent)) / n, "count"},
      {"am.exec.steal_served_share",
       share(get(Stat::kStealRequestsServed), get(Stat::kStealRequestsSent)),
       "share"},
      {"am.exec.steal_rtt_ns.p50", probe(Probe::kStealRoundTrip, 0.5), "ns"},
      {"setup.runtime_ctor_ms", median(ctor_ms), "ms"},
      {"setup.spawn_inject_ms", median(spawn_ms), "ms"},
      {"e2e.rtt_p99_us", median(p99), "us"},
      {"e2e.rtt_top_us", median(top), "us"},
      {"e2e.rtt_top_level", untraced.front().rtt_top.level, "%"},
      {"e2e.rtt_samples", static_cast<double>(untraced.front().rtt_top.samples),
       "count"},
      {"trace.overhead_pct",
       (median(traced_run) / median(untraced_run) - 1.0) * 100.0, "%"},
      {"trace.spans_per_sample", static_cast<double>(spans) / n, "count"},
      {"trace.span_drops", static_cast<double>(drops), "count"},
  };
  out.insert(out.end(), fidelity.begin(), fidelity.end());
  return out;
}

void write_spans(const char* path, const std::vector<Span>& spans) {
  static constexpr const char* kNames[] = {
      "request",    "handler",    "continuation", "send_call",
      "request_call", "reply_call", "create_call",  "migrate_call"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(SpanName::kCount));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "halbench: cannot write %s\n", path);
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"req\": %llu, "
                 "\"name\": \"%s\", \"start\": %lld, \"end\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 kNames[static_cast<std::size_t>(s.name)],
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& w = *args.workload;

  // Warm-up sample (caches, pools, lazy set-up): checked and counted, but
  // its figures are not reported.
  std::uint64_t sample_seed = mix(args.seed);
  std::uint64_t attempted = 0, failed = 0;
  Tracer::begin_sample(false, w.sample_every);
  {
    const Sample warm = w.run(SampleSpec{sample_seed});
    attempted += warm.attempted;
    failed += warm.failed;
    for (const std::string& e : warm.config_echo) {
      std::printf("{\"config\": %s}\n", e.c_str());
    }
  }

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::seconds(static_cast<long>(args.seconds));
  std::vector<Sample> untraced, traced;
  std::vector<Span> last_spans;
  for (int i = 0; Clock::now() < deadline ||
                  static_cast<int>(untraced.size()) < kMinSamples ||
                  (args.trace && static_cast<int>(traced.size()) < kMinSamples);
       ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    sample_seed = mix(sample_seed);
    Tracer::begin_sample(trace_this, w.sample_every);
    Sample s = w.run(SampleSpec{sample_seed});
    if (trace_this) {
      std::vector<Span> spans = Tracer::collect();
      s.spans = spans.size();
      s.span_drops = Tracer::dropped();
      s.layers = analyze(spans);
      last_spans = std::move(spans);
    }
    summarize_latency(s);
    if (!trace_this) {
      // Untraced samples are read only for their scalar figures; keeping
      // their run reports would make peak RSS grow with the sample count.
      std::vector<hal::obs::RunReport>().swap(s.reports);
      std::vector<std::string>().swap(s.config_echo);
      std::vector<Metric>().swap(s.fidelity);
    }
    Tracer::begin_sample(false, w.sample_every);  // release the span logs
    attempted += s.attempted;
    failed += s.failed;
    std::printf(
        "{\"sample\": %d, \"traced\": %s, \"attempted\": %llu, \"failed\": "
        "%llu, \"run_s\": %.6f, \"rtt_p50_us\": %.3f, \"rtt_p90_us\": "
        "%.3f}\n",
        i, trace_this ? "true" : "false",
        static_cast<unsigned long long>(s.attempted),
        static_cast<unsigned long long>(s.failed), s.run_s,
        static_cast<double>(s.rtt_p50_ns) / 1e3,
        static_cast<double>(s.rtt_p90_ns) / 1e3);
    std::fflush(stdout);
    (trace_this ? traced : untraced).push_back(std::move(s));
  }

  if (args.trace && args.spans_out != nullptr) {
    write_spans(args.spans_out, last_spans);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    // The sim.* records do not depend on the workload; elsewhere one
    // untraced sim_paper sample provides them.
    metrics = per_layer(traced, untraced,
                        std::strcmp(w.name, "sim_paper") == 0
                            ? traced.front().fidelity
                            : run_sim_paper(SampleSpec{args.seed}).fidelity);
  } else {
    metrics = end_to_end(untraced, measure_paper_rows().max_err_pct());
  }

  const bool correct = failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
