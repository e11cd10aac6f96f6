#include "am/machine.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "check/affinity.hpp"

namespace hal::am {

void Machine::configure_faults(const FaultConfig& cfg) {
  HAL_ASSERT(cfg.probabilities_valid());
  faults_ = cfg;
  links_.clear();
  if (!cfg.enabled) return;
  const SimTime rto = cfg.rto_ns != 0 ? cfg.rto_ns : default_rto();
  links_.reserve(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    auto ep = std::make_unique<LinkEndpoint>();
    ep->configure(n, cfg, rto,
                  clients_[n] != nullptr ? clients_[n]->link_pool() : nullptr);
    links_.push_back(std::move(ep));
  }
}

void Machine::drain_links() {
  for (NodeId n = 0; n < static_cast<NodeId>(links_.size()); ++n) {
    // Pool releases assert execution affinity; at shutdown drain the node
    // threads/streams are gone, so adopt each node's identity in turn.
    check::ScopedExecutionNode scope(n);
    links_[n]->drain();
  }
}

void Machine::for_each_link_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& ep : links_) ep->for_each_pending_payload(fn);
}

void Machine::arrive(NodeId node, Packet p, LinkSink& sink) {
  if (links_active() && (p.link_seq != 0 || p.link_ack)) {
    link(node).receive(std::move(p), sink);
  } else {
    sink.link_deliver(std::move(p));
  }
}

}  // namespace hal::am
