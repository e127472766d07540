// PCIe fabric: a tree of root complex / switches / endpoint devices with
// address-routed memory writes and reads.
//
// Topology is a tree (as on real machines): the root complex at the top,
// switches below it, devices at the leaves. Each edge carries two
// `sim::Channel`s (upstream/downstream). Transfers are chunked (default
// 4 KB); a chunk is forwarded hop-by-hop with chained callbacks, so chunks
// of one transfer pipeline across hops and independent transfers contend
// for shared links naturally.
//
// Cut-through at single-fed hops: a channel that only one other channel
// feeds, and that no device injects into (root->dram and root->PLX below
// a root complex with those two children), sees its chunks in its
// feeder's FIFO order, each queued the moment it arrives. So a chunk
// sent on the feeder reserves the next channel at once, for its known
// arrival time, and schedules only the arrival after it: one event fewer
// per such hop, at the same picoseconds. The feeder's arrival event is
// what a BusAnalyzer or a live trace track on the feeder's edge records,
// so such a chunk keeps the per-event hop. That never reorders the next
// channel's reservations: a track is live or inert from when it is
// opened, and an analyzer is never detached, so once one chunk falls back
// every later chunk from that feeder does, and each queues after every
// earlier reservation.
//
// The chunk path allocates nothing in steady state: every (src, dst) hop
// list is computed once while the tree is built, transfer state lives in
// pooled slots, and the per-hop callback fits the inline buffers of
// UniqueFn and the event engine.
//
// Functional semantics: MemWr carries payload bytes that are handed to the
// target device's handle_write(); MemRd invokes handle_read() on the target,
// which replies with data that streams back to the requester. Timing-only
// payloads (no data) serve pure-bandwidth benches: a read whose requester
// discards the data says so, and the target replies without copying any.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fn.hpp"
#include "common/units.hpp"
#include "pcie/link.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace apn::pcie {

class Fabric;

/// Payload of a memory transaction. `data` may be empty for timing-only
/// transfers; `bytes` is always the authoritative size, and a timing-only
/// payload takes exactly as long on the wire as one carrying its bytes.
/// A device answers a read made with `with_data = false` with
/// `Payload::timing(len)`, so no buffer is filled for a requester that
/// throws it away.
struct Payload {
  std::uint64_t bytes = 0;
  std::vector<std::uint8_t> data;  // empty => timing-only

  static Payload timing(std::uint64_t n) { return Payload{n, {}}; }
  static Payload of(std::vector<std::uint8_t> d) {
    Payload p;
    p.bytes = d.size();
    p.data = std::move(d);
    return p;
  }
};

/// Where a device sends the data of a read it serves: a plain function and
/// its context. Two words, so a device closure holding one plus a few
/// scalars stays in the inline storage of UniqueFn and the event engine.
/// Call it exactly once.
struct ReadReply {
  void (*fn)(void* ctx, Payload data) = nullptr;
  void* ctx = nullptr;

  void operator()(Payload data) const { fn(ctx, std::move(data)); }
};

/// A PCIe function that can be the *target* of memory transactions.
/// Devices initiate transactions through the Fabric using their node id.
class Device {
 public:
  virtual ~Device() = default;

  /// A posted write has fully arrived at this device.
  virtual void handle_write(std::uint64_t addr, Payload payload) = 0;

  /// A read request arrived; the device must eventually call `reply` with
  /// the data (the fabric streams the completion back to the requester).
  /// The delay before calling reply models the device's internal latency.
  /// When `with_data` is false the requester discards the contents, and
  /// the device replies with `Payload::timing(len)` at the same time it
  /// would have replied with the bytes.
  virtual void handle_read(std::uint64_t addr, std::uint32_t len,
                           bool with_data, ReadReply reply) = 0;

  const std::string& pcie_name() const { return pcie_name_; }
  int pcie_node() const { return pcie_node_; }

 protected:
  /// Name used for topology nodes and trace tracks; effective only when
  /// called before Fabric::attach (attach falls back to "dev" otherwise).
  void set_pcie_name(std::string name) { pcie_name_ = std::move(name); }

 private:
  friend class Fabric;
  std::string pcie_name_;
  int pcie_node_ = -1;
};

/// Transaction record captured by a BusAnalyzer interposer.
struct BusEvent {
  Time time;              ///< delivery time of the chunk at the far edge end
  enum class Kind { kWrite, kReadReq, kCompletion } kind;
  std::uint64_t addr;
  std::uint32_t bytes;
  bool downstream;        ///< true if moving away from the root
};

/// PCIe mnemonic for a transaction kind (MWr / MRd / CplD).
inline const char* bus_kind_name(BusEvent::Kind k) {
  switch (k) {
    case BusEvent::Kind::kWrite: return "MWr";
    case BusEvent::Kind::kReadReq: return "MRd";
    case BusEvent::Kind::kCompletion: return "CplD";
  }
  std::abort();  // unreachable: no default, so -Wswitch guards enum growth
}

/// Passive interposer attached to one edge; records every chunk crossing it.
/// Mirrors the PCIe active interposer used for the paper's Fig. 3. When
/// bound to a trace track it doubles as a producer into the trace sink, so
/// the analyzer's view and the trace timeline stay byte-for-byte consistent.
class BusAnalyzer {
 public:
  void record(BusEvent ev) {
    events_.push_back(ev);
    if (trace_)
      trace_.instant("pcie", bus_kind_name(ev.kind), ev.time,
                     {{"addr", ev.addr},
                      {"bytes", ev.bytes},
                      {"down", ev.downstream}});
  }
  const std::vector<BusEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Mirror every recorded transaction onto `t` as trace instants.
  void bind_trace(trace::Track t) { trace_ = t; }

 private:
  std::vector<BusEvent> events_;
  trace::Track trace_;
};

class Fabric {
 public:
  /// `name` labels this fabric's trace tracks (one PCIe tree per cluster
  /// node, so cluster assembly passes "node<i>.pcie").
  explicit Fabric(sim::Simulator& sim, std::uint32_t chunk_bytes = 4096,
                  std::string name = "pcie");
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  sim::Simulator& simulator() { return *sim_; }
  /// Trace-track group label of this fabric (e.g. "node0.pcie").
  const std::string& name() const { return name_; }

  // ---- topology construction -------------------------------------------
  /// Create the root complex; returns its node id. Must be called first.
  int add_root(const std::string& name = "root");

  /// Add a switch below `parent`, connected with `link`.
  int add_switch(int parent, LinkParams link,
                 const std::string& name = "switch");

  /// Attach an endpoint device below `parent`, connected with `link`.
  int attach(Device& dev, int parent, LinkParams link);

  /// Register an MMIO/memory address range owned by `dev`.
  void claim_range(Device& dev, std::uint64_t base, std::uint64_t size);

  /// Device receiving all writes/reads not claimed by any range
  /// (i.e. host DRAM behind the root complex). Must itself be attached
  /// or be the root-resident memory controller (node id of root).
  void set_default_target(Device& dev);

  /// Attach a bus analyzer to the edge directly above `node`.
  void attach_analyzer(int node, BusAnalyzer& analyzer);

  // ---- transactions ------------------------------------------------------
  /// Posted memory write from `src` device to `addr`. `on_delivered` fires
  /// when the last chunk reaches the target (after handle_write ran).
  void post_write(const Device& src, std::uint64_t addr, Payload payload,
                  UniqueFn<void()> on_delivered = {});

  /// Memory read: request travels to the target; target replies via
  /// handle_read; completion data streams back. `on_complete` receives the
  /// full data once the last completion chunk arrives at `src`. A requester
  /// that discards the data passes `with_data = false` and receives a
  /// timing-only payload of `len` bytes, at the same simulated time.
  void read(const Device& src, std::uint64_t addr, std::uint32_t len,
            bool with_data, UniqueFn<void(Payload)> on_complete);

  /// Route lookup (target device for an address); nullptr if unroutable.
  Device* route(std::uint64_t addr) const;

  /// One-way fabric latency between two attached devices (sum of hop
  /// latencies), useful for model sanity checks.
  Time path_latency(const Device& a, const Device& b) const;

  std::uint32_t chunk_bytes() const { return chunk_bytes_; }

  /// Transfer slots allocated so far, a slab of kXferSlab at a time. A
  /// finished transfer returns its slot for reuse, so this grows only
  /// when more transfers are in flight at once than ever before.
  std::size_t transfer_slots() const {
    return xfer_slabs_.size() * kXferSlab;
  }
  static constexpr std::size_t kXferSlab = 32;

 private:
  struct Node {
    std::string name;
    int parent_edge = -1;   // edge id; -1 for the root
    Device* dev = nullptr;  // endpoints only
  };
  struct Edge {
    int up_node;    // closer to root
    int down_node;  // further from root
    LinkParams link;
    sim::Channel up;    // down_node -> up_node
    sim::Channel down;  // up_node -> down_node
    BusAnalyzer* analyzer = nullptr;
    trace::Track trace;  ///< per-edge lane; inert when tracing is off
    /// link.wire_bytes of the last chunk size sent either way, which
    /// chunks of one size mostly repeat.
    std::uint32_t memo_chunk = 0;
    Bytes memo_wire = link.wire_bytes(Bytes(0));
    /// Whether `up` / `down` is fed by exactly one other channel and by
    /// no device (see the header); kept current as the tree grows.
    bool up_single_fed = false;
    bool down_single_fed = false;

    Bytes wire_bytes(std::uint32_t chunk) {
      if (chunk != memo_chunk) {
        memo_chunk = chunk;
        memo_wire = link.wire_bytes(Bytes(chunk));
      }
      return memo_wire;
    }
  };
  struct Range {
    std::uint64_t base, size;
    Device* dev;
  };
  /// One hop of a precomputed path.
  struct Hop {
    int edge;
    bool downstream;  // direction of travel on this edge
  };

  /// State of one chunked transfer (defined in fabric.cpp).
  struct Xfer;
  using XferSlab = std::unique_ptr<Xfer[]>;

  int new_node(const std::string& name, int parent, LinkParams link);
  /// Recompute the single-fed flags of the channels leaving node `n`: the
  /// up channel of its uplink and the down channels of its child links.
  void update_single_fed(int n);
  /// Precomputed hop list from one node to another.
  std::span<const Hop> route_between(int from_node, int to_node) const {
    return routes_[static_cast<std::size_t>(from_node)]
                  [static_cast<std::size_t>(to_node)];
  }
  Xfer* acquire_xfer();
  void release_xfer(Xfer* x);
  /// Chunk the transfer `x` describes and send the chunks on their way.
  void send_chunks(Xfer* x);
  /// Forward one chunk across hop `hop` of its transfer's route, and on
  /// through the single-fed hops after it; on the final hop, deliver to
  /// the target device and finish the transfer.
  void forward_chunk(Xfer* x, std::uint64_t offset, std::uint32_t chunk,
                     std::uint32_t hop);
  /// The last chunk of `x` arrived at its target.
  void finish(Xfer* x);
  /// ReadReply target: the device answered read `ctx` (an Xfer) with
  /// `data`, which now streams back in the same slot.
  static void complete_read(void* ctx, Payload data);

  sim::Simulator* sim_;
  // apn-lint: allow(check-coverage) — set at construction, never mutated
  std::uint32_t chunk_bytes_;
  std::string name_;
  // apn-lint: allow(check-coverage) — topology is frozen before the sim runs
  std::vector<Node> nodes_;
  // apn-lint: allow(check-coverage) — topology is frozen before the sim runs
  std::vector<Edge> edges_;
  std::vector<Range> ranges_;
  Device* default_target_ = nullptr;
  // apn-lint: allow(check-coverage) — topology is frozen before the sim runs
  int root_ = -1;
  /// routes_[from][to]: hop list between two nodes, extended as nodes are
  /// added. The inner vectors' buffers never move, so in-flight transfers
  /// may keep spans into them.
  // apn-lint: allow(check-coverage) — topology is frozen before the sim runs
  std::vector<std::vector<std::vector<Hop>>> routes_;
  /// Slabs holding every transfer slot ever allocated; free slots are
  /// chained through free_xfers_.
  std::vector<XferSlab> xfer_slabs_;
  Xfer* free_xfers_ = nullptr;
};

}  // namespace apn::pcie
