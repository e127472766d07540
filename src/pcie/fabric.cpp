#include "pcie/fabric.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"

namespace apn::pcie {

Fabric::Fabric(sim::Simulator& sim, std::uint32_t chunk_bytes,
               std::string name)
    : sim_(&sim), chunk_bytes_(chunk_bytes), name_(std::move(name)) {}

// Out of line: Xfer is complete only in this file.
Fabric::~Fabric() = default;

int Fabric::add_root(const std::string& name) {
  if (root_ >= 0) throw std::logic_error("fabric already has a root");
  nodes_.push_back(Node{name, -1, nullptr});
  root_ = static_cast<int>(nodes_.size()) - 1;
  routes_.push_back({std::vector<Hop>{}});
  return root_;
}

int Fabric::new_node(const std::string& name, int parent, LinkParams link) {
  if (parent < 0 || parent >= static_cast<int>(nodes_.size()))
    throw std::out_of_range("invalid parent node");
  Node node;
  node.name = name;

  sim::ChannelParams cp;
  cp.rate = link.raw_rate();
  cp.per_send_overhead = 0;  // TLP overhead charged via wire_bytes()
  cp.latency = link.hop_latency;
  edges_.push_back(Edge{
      .up_node = parent,
      .down_node = static_cast<int>(nodes_.size()),
      .link = link,
      .up = sim::Channel(*sim_, cp),
      .down = sim::Channel(*sim_, cp),
      .trace =
          trace::Track::open(name_, nodes_[parent].name + "<->" + node.name),
  });
  node.parent_edge = static_cast<int>(edges_.size()) - 1;
  nodes_.push_back(std::move(node));
  const int id = static_cast<int>(nodes_.size()) - 1;
  update_single_fed(parent);

  // Extend the route table. The new node is a leaf, so it reaches every
  // other node by climbing to its parent first, and is reached through it.
  const auto p = static_cast<std::size_t>(parent);
  const Hop up{nodes_[id].parent_edge, false};
  const Hop down{up.edge, true};
  std::vector<std::vector<Hop>> row(nodes_.size());  // row[id]: id -> id
  for (std::size_t other = 0; other + 1 < nodes_.size(); ++other) {
    const std::vector<Hop>& from_parent = routes_[p][other];
    row[other].reserve(from_parent.size() + 1);
    row[other].push_back(up);
    row[other].insert(row[other].end(), from_parent.begin(),
                      from_parent.end());
    const std::vector<Hop>& to_parent = routes_[other][p];
    std::vector<Hop> to_new;
    to_new.reserve(to_parent.size() + 1);
    to_new.assign(to_parent.begin(), to_parent.end());
    to_new.push_back(down);
    routes_[other].push_back(std::move(to_new));
  }
  routes_.push_back(std::move(row));
  return id;
}

void Fabric::update_single_fed(int n) {
  // A channel leaving n is fed by the up channels of n's child links, by
  // the down channel of n's uplink (except the one it is), and by n itself
  // if n is a device.
  int children = 0;
  for (const Edge& e : edges_) children += e.up_node == n ? 1 : 0;
  const Node& node = nodes_[static_cast<std::size_t>(n)];
  const bool injects = node.dev != nullptr;
  if (node.parent_edge >= 0)
    edges_[static_cast<std::size_t>(node.parent_edge)].up_single_fed =
        !injects && children == 1;
  const int from_above = node.parent_edge >= 0 ? 1 : 0;
  for (Edge& e : edges_)
    if (e.up_node == n)
      e.down_single_fed = !injects && from_above + children - 1 == 1;
}

int Fabric::add_switch(int parent, LinkParams link, const std::string& name) {
  return new_node(name, parent, link);
}

int Fabric::attach(Device& dev, int parent, LinkParams link) {
  int id = new_node(dev.pcie_name_.empty() ? "dev" : dev.pcie_name_, parent,
                    link);
  nodes_[id].dev = &dev;
  dev.pcie_node_ = id;
  if (dev.pcie_name_.empty()) dev.pcie_name_ = nodes_[id].name;
  return id;
}

void Fabric::claim_range(Device& dev, std::uint64_t base, std::uint64_t size) {
  APN_CHECK_ACCESS(ranges_, kWrite);
  ranges_.push_back(Range{base, size, &dev});
}

void Fabric::set_default_target(Device& dev) { default_target_ = &dev; }

void Fabric::attach_analyzer(int node, BusAnalyzer& analyzer) {
  if (node < 0 || node >= static_cast<int>(nodes_.size()) ||
      nodes_[node].parent_edge < 0)
    throw std::out_of_range("cannot attach analyzer: node has no uplink");
  edges_[nodes_[node].parent_edge].analyzer = &analyzer;
}

Device* Fabric::route(std::uint64_t addr) const {
  APN_CHECK_ACCESS(ranges_, kRead);
  for (const Range& r : ranges_)
    if (addr >= r.base && addr - r.base < r.size) return r.dev;
  return default_target_;
}

Time Fabric::path_latency(const Device& a, const Device& b) const {
  Time total = 0;
  for (const Hop& h : route_between(a.pcie_node(), b.pcie_node()))
    total += edges_[h.edge].link.hop_latency;
  return total;
}

/// State of one chunked transfer, in a slot pooled by the fabric. The
/// route, kind and completion all live here, so the per-hop callback
/// captures only {this, xfer, offset, chunk, hop, t_send}.
///
/// A read uses one slot for its whole life: the request carries the
/// target, length, response route and completion, and the same slot then
/// becomes the completion transfer that streams the data back. The slot is
/// also the context of the target's ReadReply, so it knows its fabric.
struct Fabric::Xfer {
  Fabric* fabric = nullptr;
  std::span<const Hop> hops;
  BusEvent::Kind kind = BusEvent::Kind::kWrite;
  std::uint64_t addr = 0;
  std::uint64_t total = 0;
  std::uint64_t delivered_bytes = 0;
  Payload payload;
  UniqueFn<void()> on_written;  // kWrite
  // kReadReq / kCompletion
  Device* target = nullptr;
  std::uint32_t len = 0;
  bool with_data = true;
  std::span<const Hop> rsp_hops;
  UniqueFn<void(Payload)> on_read;
  Xfer* next_free = nullptr;
};

namespace {
Payload slice(const Payload& p, std::uint64_t offset, std::uint32_t len) {
  Payload out;
  out.bytes = len;
  if (!p.data.empty()) {
    out.data.assign(p.data.begin() + static_cast<std::ptrdiff_t>(offset),
                    p.data.begin() + static_cast<std::ptrdiff_t>(offset + len));
  }
  return out;
}
}  // namespace

Fabric::Xfer* Fabric::acquire_xfer() {
  // kAccum: slots are interchangeable, so which of two same-tick
  // transfers gets which slot cannot change a simulated outcome.
  APN_CHECK_ACCESS(free_xfers_, kAccum);
  if (free_xfers_ == nullptr) {
    // A whole slab at a time: a few long-lived blocks instead of many
    // small ones left between the run's other allocations.
    APN_CHECK_ACCESS(xfer_slabs_, kAccum);
    Xfer* slab =
        xfer_slabs_.emplace_back(std::make_unique<Xfer[]>(kXferSlab)).get();
    for (std::size_t i = kXferSlab; i-- > 0;) {
      slab[i].fabric = this;
      slab[i].next_free = free_xfers_;
      free_xfers_ = &slab[i];
    }
  }
  Xfer* x = free_xfers_;
  free_xfers_ = x->next_free;
  return x;
}

void Fabric::release_xfer(Xfer* x) {
  APN_CHECK_ACCESS(free_xfers_, kAccum);
  x->payload = Payload{};
  x->next_free = free_xfers_;
  free_xfers_ = x;
}

void Fabric::send_chunks(Xfer* x) {
  x->delivered_bytes = 0;
  const std::uint64_t total = x->total;
  std::uint64_t offset = 0;
  // Zero-length transactions (read requests) still send one header chunk.
  // `x` may be released by the last forward_chunk (zero-hop route), so the
  // loop reads only locals.
  do {
    const std::uint32_t chunk = static_cast<std::uint32_t>(
        total - offset < chunk_bytes_ ? total - offset : chunk_bytes_);
    forward_chunk(x, offset, chunk, 0);
    offset += chunk;
  } while (offset < total);
}

void Fabric::forward_chunk(Xfer* x, std::uint64_t offset, std::uint32_t chunk,
                           std::uint32_t hop) {
  if (hop == x->hops.size()) {
    // Chunk fully arrived at the target end. Chunks of one transfer are
    // serialized by the hop channels, but the accumulate-and-test below is
    // the canonical shape the race detector watches: flag it if two chunk
    // deliveries ever land in the same tick without ordering.
    x->delivered_bytes += chunk;
    APN_CHECK_ACCESS(x->delivered_bytes, kWrite);
    if (x->kind == BusEvent::Kind::kWrite) {
      Device* target = route(x->addr + offset);
      if (target != nullptr)
        // A single-chunk write hands its payload over whole: the slot
        // reads it no more.
        target->handle_write(x->addr + offset,
                             chunk == x->total
                                 ? std::move(x->payload)
                                 : slice(x->payload, offset, chunk));
    }
    if (x->total == 0 || x->delivered_bytes >= x->total) finish(x);
    return;
  }
  // The chunk is queued on this hop's channel now, and on each single-fed
  // hop after it the moment it arrives there (see the header); only its
  // arrival after the last of them is an event.
  Time t_send = sim_->now();
  for (;; ++hop) {
    const Hop& h = x->hops[hop];
    Edge& e = edges_[static_cast<std::size_t>(h.edge)];
    sim::Channel& ch = h.downstream ? e.down : e.up;
    const Time arrival =
        ch.reserve(t_send, e.wire_bytes(chunk)) + ch.params().latency;
    if (hop + 1 < x->hops.size() && e.analyzer == nullptr && !e.trace) {
      const Hop& next = x->hops[hop + 1];
      const Edge& to = edges_[static_cast<std::size_t>(next.edge)];
      if (next.downstream ? to.down_single_fed : to.up_single_fed) {
        t_send = arrival;
        continue;
      }
    }
    auto arrived = [this, x, offset, chunk, hop, t_send] {
      const Hop& h = x->hops[hop];
      Edge& e = edges_[static_cast<std::size_t>(h.edge)];
      if (e.analyzer != nullptr)
        e.analyzer->record(BusEvent{sim_->now(), x->kind, x->addr + offset,
                                    chunk, h.downstream});
      if (e.trace)
        e.trace.span("pcie", bus_kind_name(x->kind), t_send, sim_->now(),
                     {{"addr", x->addr + offset},
                      {"bytes", chunk},
                      {"down", h.downstream}});
      forward_chunk(x, offset, chunk, hop + 1);
    };
    static_assert(sim::Simulator::stores_inline<decltype(arrived)>(),
                  "the per-hop callback must not heap-allocate");
    sim_->at(arrival, std::move(arrived));
    return;
  }
}

void Fabric::finish(Xfer* x) {
  switch (x->kind) {
    case BusEvent::Kind::kWrite: {
      // The slot is free before the completion runs, so the completion
      // may start a new transfer in it.
      UniqueFn<void()> done = std::move(x->on_written);
      release_xfer(x);
      if (done) done();
      return;
    }
    case BusEvent::Kind::kReadReq:
      // The target's reply streams back in this slot, which stays taken
      // until then (or until the fabric is destroyed, if none comes).
      x->target->handle_read(x->addr, x->len, x->with_data,
                             ReadReply{&Fabric::complete_read, x});
      return;
    case BusEvent::Kind::kCompletion: {
      UniqueFn<void(Payload)> done = std::move(x->on_read);
      Payload data = std::move(x->payload);
      release_xfer(x);
      if (done) done(std::move(data));
      return;
    }
  }
}

void Fabric::complete_read(void* ctx, Payload data) {
  Xfer* x = static_cast<Xfer*>(ctx);
  x->kind = BusEvent::Kind::kCompletion;
  x->hops = x->rsp_hops;
  x->total = data.bytes;
  x->payload = std::move(data);
  x->fabric->send_chunks(x);
}

void Fabric::post_write(const Device& src, std::uint64_t addr, Payload payload,
                        UniqueFn<void()> on_delivered) {
  Device* target = route(addr);
  if (target == nullptr) throw std::runtime_error("unroutable write address");
  Xfer* x = acquire_xfer();
  x->hops = route_between(src.pcie_node(), target->pcie_node());
  x->kind = BusEvent::Kind::kWrite;
  x->addr = addr;
  x->total = payload.bytes;
  x->payload = std::move(payload);
  x->on_written = std::move(on_delivered);
  send_chunks(x);
}

void Fabric::read(const Device& src, std::uint64_t addr, std::uint32_t len,
                  bool with_data, UniqueFn<void(Payload)> on_complete) {
  Device* target = route(addr);
  if (target == nullptr) throw std::runtime_error("unroutable read address");
  // Read request: a header-only TLP travelling to the target.
  Xfer* x = acquire_xfer();
  x->hops = route_between(src.pcie_node(), target->pcie_node());
  x->kind = BusEvent::Kind::kReadReq;
  x->addr = addr;
  x->total = 0;
  x->target = target;
  x->len = len;
  x->with_data = with_data;
  x->rsp_hops = route_between(target->pcie_node(), src.pcie_node());
  x->on_read = std::move(on_complete);
  send_chunks(x);
}

}  // namespace apn::pcie
