// Destination-coalesced wire batching (ROADMAP item 4a).
//
// The paper's flow-control layer already tracks per-destination traffic;
// this extends it into an aggregation layer: a per-(source, destination)
// FrameBuilder packs many small packets into one bounded wire frame, so a
// burst of fine-grain sends to the same node pays the per-packet costs
// (header injection, link sequencing, wake handshake, dispatch entry) once
// per frame instead of once per message — the amortization CAF and Templet
// identify as the dominant lever once allocation is off the path (PR 3/5).
//
// Wire format of a frame (Packet::frame = true, words[0] = record count,
// payload = concatenated records, ≤ BatchConfig::max_frame_bytes):
//
//   record := handler   u32      | payload_len  u16 | nwords u8 | flags u8
//             stamp     u64      |                                  (16 B)
//             words     nwords×u64   (trailing zero words trimmed)
//             payload   payload_len bytes
//
// Frames travel as ordinary packets: LinkEndpoint sequences, retransmits
// and dedupes whole frames, so the fault plane (PR 6) composes unchanged,
// and the per-channel FIFO order of batched traffic is the frame order.
// Mixing unbatchable traffic (bulk chunks, oversized payloads, urgent
// control) into a channel forces a barrier flush first, preserving send
// order.
//
// This file holds the frame format and per-node state; the layer itself
// (eligibility, flushes, decode) runs in MnMachine. SimMachine never
// batches: it sends one packet per message, as CMAM did.
//
// Flush policy (docs/perf.md):
//   fill    — the frame reached max_msgs records or max_frame_bytes
//   timer   — the per-destination holdoff deadline expired (MnMachine
//             polls deadlines once per node quantum)
//   idle    — the source node transitioned busy → idle (termination
//             detection must never see a held frame)
//   barrier — an unbatchable packet needed the channel
//
// The policy is fixed (BatchConfig's constants; only `enabled` is set at
// run time). The holdoff adapts per destination on timer flushes only: a
// timer flush of a frame at least half full doubles it (the burst needed a
// little longer to reach fill), one under a quarter full halves it
// (latency-bound traffic), clamped to [holdoff_min_ns, holdoff_max_ns].
//
// Ownership: frame buffers come from the *sending* node's BufferPool
// (borrowed from NodeClient::link_pool, private fallback otherwise) and
// retire into the *receiving* node's pool after decode — the same
// cross-node recycling loop packet payloads use, keeping the message path
// at 0 allocs/msg in steady state (bench/msgpath_alloc).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>

#include "common/assert.hpp"
#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/lint_markers.hpp"
#include "common/types.hpp"

#include "am/packet.hpp"

namespace hal::am {

/// Bytes of fixed header per frame record (see the format comment above).
inline constexpr std::size_t kFrameRecordHeader = 16;

/// Smallest useful frame: one record header plus a full word set.
inline constexpr std::size_t kMinFrameBytes =
    kFrameRecordHeader + kPacketWords * sizeof(std::uint64_t);

/// The aggregation layer's policy. Only `enabled` is set at run time; it
/// rides RuntimeConfig and is applied once, after clients attach and before
/// run(), via MnMachine::configure_batching. The tuning values are fixed
/// constants (tuned on the CAF storm shapes, bench/caf_storms).
struct BatchConfig {
  /// Master switch. Batching is on by default: coalescing is semantically
  /// invisible (per-channel order and exactly-once delivery preserved) and
  /// strictly cheaper on the wire. Disabled, sends take the historical
  /// one-packet-per-message path. SimMachine ignores the switch: it always
  /// sends one packet per message, as the CM-5's CMAM did.
  bool enabled = true;
  /// Frame payload cap. Bounded by kBulkChunkBytes (the machine's hard
  /// per-packet cap); the value fills the pool's 4 KiB size class — a
  /// half-full 2 KiB frame would recycle through the same class, so
  /// capping below it only halves the amortization, never the footprint.
  static constexpr std::uint32_t max_frame_bytes = 4096;
  /// Fill-flush threshold: a frame closes after this many records. The
  /// kernel runs the same number of queued messages per dispatcher item, so
  /// a decoded frame executes as one burst.
  static constexpr std::uint32_t max_msgs = 64;
  /// Initial per-destination holdoff: how long the first record of a frame
  /// may wait for company before a timer flush (wall ns). Kept small:
  /// bursty channels double their way up adaptively, while pipelined
  /// dependency chains (one small message per hop, sender still busy) only
  /// ever pay this much extra latency.
  static constexpr SimTime holdoff_ns = 2'000;
  /// Adaptive holdoff clamp range.
  static constexpr SimTime holdoff_min_ns = 1'000;
  static constexpr SimTime holdoff_max_ns = 100'000;
  /// The holdoff always adapts (FrameBuilder::close); there is no fixed-
  /// holdoff mode. Kept so config echoes can print the whole policy.
  static constexpr bool adaptive = true;
};

static_assert(BatchConfig::max_frame_bytes >= kMinFrameBytes &&
              BatchConfig::max_frame_bytes <= kBulkChunkBytes);
static_assert(BatchConfig::max_msgs >= 2);
static_assert(BatchConfig::holdoff_min_ns >= 1 &&
              BatchConfig::holdoff_min_ns <= BatchConfig::holdoff_ns &&
              BatchConfig::holdoff_ns <= BatchConfig::holdoff_max_ns);

/// Why a frame closed. Indexes the WireStats flush counters and drives the
/// adaptive holdoff.
enum class FlushCause : std::uint8_t { kFill, kTimer, kIdle, kBarrier };

/// Per-source-node aggregation counters, folded into RunReport (schema v5)
/// alongside the link stats.
struct WireStats {
  std::uint64_t frames_sent = 0;     ///< closed frames put on the wire
  std::uint64_t msgs_coalesced = 0;  ///< messages that traveled inside frames
  std::uint64_t flush_fill = 0;
  std::uint64_t flush_timer = 0;
  std::uint64_t flush_idle = 0;
  std::uint64_t flush_barrier = 0;
};

/// Number of trailing zero words a record can omit from the wire.
inline std::uint8_t frame_used_words(const Packet& p) noexcept {
  std::size_t n = kPacketWords;
  while (n > 0 && p.words[n - 1] == 0) --n;
  return static_cast<std::uint8_t>(n);
}

/// Encoded size of `p` as a frame record.
inline std::size_t frame_record_size(const Packet& p) noexcept {
  return kFrameRecordHeader +
         frame_used_words(p) * sizeof(std::uint64_t) + p.payload.size();
}

/// One open frame toward a single destination. The buffer is Owned while
/// records accumulate and handed off whole by close(); the drop-on-drain
/// path retires it instead (MnMachine::drain_wire).
class FrameBuilder {
  // Checked by hal-lint HL007: this protocol is *single-writer* — deadlines
  // and counts are plain fields whose safety comes from execution-stream
  // affinity, so introducing atomics (or memory orders) here would paper
  // over a design breach instead of fixing one.
  HAL_MEMORY_PROTOCOL("frame_deadlines");

 public:
  bool open() const noexcept { return count_ != 0; }
  std::uint32_t count() const noexcept { return count_; }
  /// Flush deadline of the open frame (0 when closed).
  SimTime deadline() const noexcept { return deadline_; }

  /// Would `p`'s record still fit under the frame byte cap?
  bool fits(const Packet& p) const noexcept {
    return buf_.size() + frame_record_size(p) <= BatchConfig::max_frame_bytes;
  }

  /// Append `p` as a record. The first record arms the holdoff deadline and
  /// acquires the frame buffer from `pool`; `p`'s payload retires back into
  /// `pool` (both on the sending node's stream). Caller checked fits().
  void add(Packet p, SimTime now, BufferPool& pool);

  /// Close the frame into a wire packet (frame = true, words[0] = record
  /// count, payload = the record bytes) and adapt the holdoff from `cause`.
  Packet close(NodeId src, NodeId dst, FlushCause cause);

  /// Shutdown path: retire a still-open buffer without shipping it.
  void abandon(BufferPool& pool);

  /// Buffer-audit peek at the open frame bytes (empty shell when closed).
  const Bytes& pending_payload() const noexcept { return buf_; }

 private:
  Bytes buf_;
  std::uint32_t count_ = 0;
  SimTime deadline_ = 0;
  SimTime holdoff_ = BatchConfig::holdoff_ns;  // adapted by timer closes
};

/// Iterate the records of a received frame, rehydrating each into a
/// standalone Packet whose payload comes from the *receiving* node's pool.
/// Takes the client/pool as concrete references — no type-erased callback
/// (hal-handler-purity: decode runs on the AM handler path).
class FrameReader {
 public:
  explicit FrameReader(const Packet& frame) noexcept
      : frame_(frame),
        expected_(static_cast<std::uint32_t>(frame.words[0])) {
    HAL_ASSERT(frame.frame);
  }

  /// Decode the next record into `out`. Returns false when exhausted;
  /// asserts the record count and byte bounds agree (a frame passed the
  /// link layer intact or not at all).
  bool next(Packet& out, BufferPool& pool);

  std::uint32_t expected() const noexcept { return expected_; }

 private:
  const Packet& frame_;
  std::uint32_t expected_;
  std::uint32_t decoded_ = 0;
  std::size_t pos_ = 0;
};

/// Per-source-node aggregation state: one FrameBuilder per destination the
/// node has batched toward (std::map for deterministic flush order; entries
/// are never erased, so steady-state batching allocates nothing), the
/// borrowed payload pool, and the wire counters. Single-writer: touched
/// only from the owning node's execution stream, like LinkEndpoint.
class WireAggregator {
 public:
  explicit WireAggregator(BufferPool* pool) : pool_(pool) {}

  /// The node's payload pool (kernel-provided), or the private fallback
  /// for bare machine-level clients.
  BufferPool& pool() noexcept {
    return pool_ != nullptr ? *pool_ : fallback_pool_;
  }

  /// Builder toward `dst`, created on first use.
  FrameBuilder& builder(NodeId dst) { return frames_[dst]; }
  /// Builder toward `dst` if one was ever created, else nullptr (barriers
  /// must not instantiate builders for never-batched channels).
  FrameBuilder* find(NodeId dst) {
    const auto it = frames_.find(dst);
    return it == frames_.end() ? nullptr : &it->second;
  }

  std::map<NodeId, FrameBuilder>& frames() noexcept { return frames_; }
  const std::map<NodeId, FrameBuilder>& frames() const noexcept {
    return frames_;
  }

  /// Earliest holdoff deadline over open frames; 0 = none open.
  SimTime earliest_deadline() const noexcept {
    SimTime best = 0;
    for (const auto& [dst, fb] : frames_) {
      const SimTime d = fb.deadline();
      if (d != 0 && (best == 0 || d < best)) best = d;
    }
    return best;
  }

  WireStats& stats() noexcept { return stats_; }
  const WireStats& stats() const noexcept { return stats_; }

 private:
  BufferPool* pool_ = nullptr;
  BufferPool fallback_pool_;
  std::map<NodeId, FrameBuilder> frames_;
  WireStats stats_;
};

}  // namespace hal::am
