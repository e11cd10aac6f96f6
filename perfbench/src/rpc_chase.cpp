// rpc_chase: closed-loop request/reply against migrating servers.
//
// One caller per node issues requests one at a time to seeded servers and
// waits for each reply before the next. Every server migrates to a seeded
// node each K-th request it serves, so callers' cached descriptors go
// stale and a measured share of requests is forwarded and chased by FIR.
// Replies are a seeded function of the request, so every one is checked.
// Traffic is sparse and latency-bound: frames close on idle or timer with
// about one record each, and nodes park and wake on every hop.
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kMaxServers = 8;

std::uint64_t reply_value(std::uint64_t seed, std::uint64_t server,
                          std::uint64_t x) {
  return mix(x ^ mix(seed + server));
}

class Server : public hal::ActorBase {
 public:
  void on_init(hal::Context&, std::uint64_t index, std::uint64_t seed,
               std::uint64_t migrate_every) {
    index_ = index;
    seed_ = seed;
    migrate_every_ = migrate_every;
  }
  void on_get(hal::Context& ctx, std::uint64_t x, std::uint64_t req,
              std::uint64_t cause) {
    ScopedSpan h(ctx, SpanName::kHandler, req, cause);
    if (++served_ % migrate_every_ == 0) {
      auto to = static_cast<hal::NodeId>(
          mix(seed_ ^ (index_ << 32) ^ moves_++) % ctx.node_count());
      if (to == ctx.node()) {
        to = static_cast<hal::NodeId>((to + 1) % ctx.node_count());
      }
      ScopedSpan m(ctx, SpanName::kMigrateCall, req, h.id());
      ctx.migrate_to(to);
    }
    // The reply is the handler's last call (the tiling test relies on it).
    ScopedSpan r(ctx, SpanName::kReplyCall, req, h.id());
    ctx.reply(reply_value(seed_, index_, x));
  }
  HAL_BEHAVIOR(Server, &Server::on_init, &Server::on_get)

  bool migratable() const override { return true; }
  void pack_state(hal::ByteWriter& w) const override {
    w.write(index_);
    w.write(seed_);
    w.write(migrate_every_);
    w.write(served_);
    w.write(moves_);
  }
  void unpack_state(hal::ByteReader& r) override {
    index_ = r.read<std::uint64_t>();
    seed_ = r.read<std::uint64_t>();
    migrate_every_ = r.read<std::uint64_t>();
    served_ = r.read<std::uint64_t>();
    moves_ = r.read<std::uint64_t>();
  }

 private:
  std::uint64_t index_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t migrate_every_ = 1;
  std::uint64_t served_ = 0;
  std::uint64_t moves_ = 0;
};

class Caller : public hal::ActorBase {
 public:
  void on_server(hal::Context&, hal::MailAddress server) {
    servers_[nservers_++] = server;
  }
  void on_start(hal::Context& ctx, std::uint64_t index, std::uint64_t seed,
                std::uint64_t requests) {
    index_ = index;
    seed_ = seed;
    requests_ = requests;
    issue(ctx);
  }
  void on_next(hal::Context& ctx) { issue(ctx); }
  HAL_BEHAVIOR(Caller, &Caller::on_server, &Caller::on_start,
               &Caller::on_next)

 private:
  void issue(hal::Context& ctx) {
    if (done_ == requests_) return;
    const std::uint64_t k = mix(seed_ ^ (index_ << 40) ^ done_++);
    const std::uint64_t server = k % nservers_;
    const std::uint64_t x = mix(k);
    const std::uint64_t expect = reply_value(seed_, server, x);
    ++rec(ctx.node()).attempted;
    const std::uint64_t req = Tracer::root();
    const hal::SimTime t0 = ctx.now();
    ScopedSpan s(ctx, SpanName::kRequestCall, req, req);
    ctx.request<&Server::on_get>(
        servers_[server],
        [self = ctx.self(), t0, expect, req](hal::Context& jc,
                                             const hal::JoinView& v) {
          ScopedSpan c(jc, SpanName::kContinuation, req, 0);
          const hal::SimTime t1 = jc.now();
          NodeRec& r = rec(jc.node());
          r.rtt_ns.push_back(t1 - t0);
          ++r.requests;
          if (v.word(0) != expect) ++r.failed;
          if (req != 0) {
            Tracer::record({req, 0, req, static_cast<std::int64_t>(t0),
                            static_cast<std::int64_t>(t1), SpanName::kRequest});
          }
          jc.send<&Caller::on_next>(self);
        },
        x, req, s.id());
  }

  hal::MailAddress servers_[kMaxServers];
  std::uint64_t nservers_ = 0;
  std::uint64_t index_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t done_ = 0;
};

}  // namespace

Sample run_rpc_shape(const SampleSpec& spec, const RpcShape& shape) {
  Sample out;
  hal::RuntimeConfig cfg;
  cfg.nodes = shape.nodes;
  cfg.machine = shape.machine;
  cfg.seed = mix(spec.seed);
  if (shape.machine == hal::MachineKind::kMn) {
    cfg.mn_workers = std::min(usable_cpus(), 4u);
  }
  const std::uint32_t servers = std::min(shape.servers, kMaxServers);
  reset_recorders(shape.nodes, shape.requests_per_caller);
  run_runtime(
      out, cfg,
      [&](hal::Runtime& rt) {
        rt.load<Server>();
        rt.load<Caller>();
        hal::MailAddress addrs[kMaxServers];
        for (std::uint32_t s = 0; s < servers; ++s) {
          const auto node =
              static_cast<hal::NodeId>(mix(spec.seed + 77 * s) % shape.nodes);
          addrs[s] = rt.spawn<Server>(node);
          rt.inject<&Server::on_init>(addrs[s], std::uint64_t{s}, spec.seed,
                                      std::uint64_t{shape.migrate_every});
        }
        for (hal::NodeId n = 0; n < shape.nodes; ++n) {
          const hal::MailAddress c = rt.spawn<Caller>(n);
          for (std::uint32_t s = 0; s < servers; ++s) {
            rt.inject<&Caller::on_server>(c, addrs[s]);
          }
          rt.inject<&Caller::on_start>(
              c, std::uint64_t{n}, spec.seed,
              std::uint64_t{shape.requests_per_caller});
        }
      },
      [&](hal::Runtime&) {
        std::uint64_t answered = 0;
        for (const NodeRec& r : recorders()) answered += r.requests;
        out.failed +=
            std::uint64_t{shape.nodes} * shape.requests_per_caller - answered;
      });
  collect_recorders(out);
  return out;
}

Sample run_rpc_chase(const SampleSpec& spec) {
  return run_rpc_shape(spec, RpcShape{});
}

}  // namespace perfbench
