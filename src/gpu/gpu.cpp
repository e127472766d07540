#include "gpu/gpu.hpp"

#include <utility>

namespace apn::gpu {

Gpu::Gpu(sim::Simulator& sim, pcie::Fabric& fabric, GpuArch arch,
         std::uint64_t mmio_base, std::string name)
    : sim_(&sim),
      fabric_(&fabric),
      arch_(std::move(arch)),
      mem_(arch_.mem_bytes),
      alloc_(0, arch_.mem_bytes, kAllocAlign),
      mmio_base_(mmio_base),
      p2p_responses_(sim, sim::ChannelParams{arch_.effective_p2p_rate(), 0,
                                             arch_.p2p_head_latency}),
      bar1_reads_(sim, sim::ChannelParams{arch_.effective_bar1_read_rate(), 0,
                                          arch_.bar1_read_latency}),
      copy_d2h_(sim),
      copy_h2d_(sim),
      compute_(sim) {
  set_pcie_name(name);
  trace_p2p_ = trace::Track::open(fabric.name(), name + ".p2p");
  trace_bar1_ = trace::Track::open(fabric.name(), name + ".bar1");
  auto& m = trace::MetricsRegistry::global();
  m_p2p_requests_ = &m.counter("gpu.p2p.requests");
  m_p2p_bytes_ = &m.counter("gpu.p2p.bytes");
  m_window_switches_ = &m.counter("gpu.window_switches");
  m_bar1_reads_ = &m.counter("gpu.bar1.reads");
}

std::uint64_t Gpu::bar1_map(std::uint64_t dev_offset, std::uint64_t size) {
  if (bar1_used_ + size > arch_.bar1_aperture_bytes)
    throw std::runtime_error("BAR1 aperture exhausted");
  std::uint64_t aperture_off = bar1_used_;
  bar1_used_ += (size + 0xFFFFull) & ~0xFFFFull;  // 64 KB granularity
  bar1_maps_.push_back(Bar1Mapping{aperture_off, dev_offset, size});
  // kAccum: two same-tick BAR1 mappings allocate disjoint aperture ranges;
  // either allocation order yields self-consistent, equally-timed mappings.
  APN_CHECK_ACCESS(bar1_used_, kAccum);
  APN_CHECK_ACCESS(bar1_maps_, kAccum);
  return mmio_base_ + GpuMmio::kBar1Aperture + aperture_off;
}

void Gpu::bar1_reset() {
  bar1_used_ = 0;
  bar1_maps_.clear();
  // Reset is a teardown-path write: keep it order-sensitive so a reset
  // racing a same-tick mapping or aperture access is flagged.
  APN_CHECK_ACCESS(bar1_used_, kWrite);
  APN_CHECK_ACCESS(bar1_maps_, kWrite);
}

void Gpu::serve_p2p_request(const P2pReadDescriptor& desc) {
  // The request mailbox has a finite queue (the "multiple-outstanding read
  // request queue" of Fig. 2); requests beyond the depth wait until a
  // completion frees a slot.
  if (p2p_queue_depth_ >= arch_.p2p_max_outstanding) {
    // Order-sensitive: a same-tick completion that frees a slot first
    // would have let this request in.
    APN_CHECK_ACCESS(p2p_queue_depth_, kRead);
    p2p_backlog_.push_back(desc);
    APN_CHECK_ACCESS(p2p_backlog_, kWrite);
    return;
  }
  ++p2p_requests_;
  p2p_bytes_ += desc.len;
  // kAccum: taking a slot here and freeing one in a same-tick completion
  // commute. Only a same-tick acceptance could have filled the queue
  // before this one, and none exists: mailbox writes arrive one at a time
  // over the GPU's single PCIe link, and a completion hands a slot to the
  // backlog only while the queue is full, when this request takes the
  // backlog path in either order.
  ++p2p_queue_depth_;
  APN_CHECK_ACCESS(p2p_queue_depth_, kAccum);
  m_p2p_requests_->inc();
  m_p2p_bytes_->add(desc.len);
  const Time t_accept = sim_->now();
  // First data lags the request by the head latency; once flowing, the
  // response engine streams at the architectural P2P rate. Head latencies
  // of back-to-back requests overlap (the engine pipelines), which is what
  // makes prefetching effective for the requester. Responses are emitted
  // as 512 B completion writes, so large (V1-style 4 KB) requests overlap
  // their own PCIe serialization with the response streaming.
  constexpr std::uint32_t kCompletion = 512;
  const bool with_data = (desc.flags & kP2pTimingOnly) == 0;
  std::uint32_t off = 0;
  while (off < desc.len) {
    const std::uint32_t sub = std::min(kCompletion, desc.len - off);
    auto respond = [this, dev_offset = desc.dev_offset,
                    reply_addr = desc.reply_addr, t_accept, off, sub,
                    len = desc.len, with_data] {
      if (off + sub >= len) {
        // The two phases of a served read request (paper Fig. 3): head
        // latency until the response engine starts, then streaming of
        // the posted-write completions.
        const Time t_head = t_accept + arch_.p2p_head_latency;
        trace_p2p_.span("gpu", "p2p_head", t_accept, t_head,
                        {{"dev_offset", dev_offset}, {"bytes", len}});
        trace_p2p_.span("gpu", "p2p_stream", t_head, sim_->now(),
                        {{"dev_offset", dev_offset}, {"bytes", len}});
        --p2p_queue_depth_;
        APN_CHECK_ACCESS(p2p_queue_depth_, kAccum);  // see serve_p2p_request
        if (!p2p_backlog_.empty()) {
          P2pReadDescriptor next = p2p_backlog_.front();
          p2p_backlog_.pop_front();
          APN_CHECK_ACCESS(p2p_backlog_, kWrite);
          serve_p2p_request(next);
        }
      }
      pcie::Payload p = pcie::Payload::timing(sub);
      if (with_data) {
        p.data.resize(sub);
        mem_.read(dev_offset + off, std::span<std::uint8_t>(p.data));
      }
      fabric_->post_write(*this, reply_addr, std::move(p));
    };
    static_assert(sim::Simulator::stores_inline<decltype(respond)>(),
                  "a P2P completion event must not heap-allocate");
    p2p_responses_.send(Bytes(sub), std::move(respond));
    off += sub;
  }
}

void Gpu::handle_write(std::uint64_t addr, pcie::Payload payload) {
  const std::uint64_t off = addr - mmio_base_;

  if (off == GpuMmio::kMailbox) {
    // A short payload or a zero-length read asks for nothing: it takes no
    // slot (a zero-length read would send no completion to free one) and
    // is not counted.
    P2pReadDescriptor desc{};
    if (payload.data.size() >= sizeof(desc)) {
      std::memcpy(&desc, payload.data.data(), sizeof(desc));
      if (desc.len > 0) serve_p2p_request(desc);
    }
    return;
  }

  if (off == GpuMmio::kWindowCtl) {
    if (payload.data.size() >= sizeof(std::uint64_t)) {
      std::memcpy(&window_page_, payload.data.data(), sizeof(window_page_));
      APN_CHECK_ACCESS(window_page_, kWrite);
      ++window_switches_;
      m_window_switches_->inc();
      trace_p2p_.instant("gpu", "window_switch", sim_->now(),
                         {{"page", window_page_}});
    }
    return;
  }

  if (off >= GpuMmio::kWindowAperture &&
      off < GpuMmio::kWindowAperture + GpuMmio::kWindowBytes) {
    if (!payload.data.empty()) {
      APN_CHECK_ACCESS(window_page_, kRead);
      std::uint64_t dev_off = window_page_ + (off - GpuMmio::kWindowAperture);
      mem_.write(dev_off, std::span<const std::uint8_t>(payload.data));
    }
    return;
  }

  if (off >= GpuMmio::kBar1Aperture) {
    std::uint64_t ap = off - GpuMmio::kBar1Aperture;
    // kSample: a same-tick bar1_map() adds a mapping this access cannot
    // target yet (its PCIe address is only returned by that call), so the
    // lookup is order-independent. bar1_reset() races stay flagged via the
    // reset's kWrite.
    APN_CHECK_ACCESS(bar1_maps_, kSample);
    for (const Bar1Mapping& m : bar1_maps_) {
      if (ap >= m.aperture_off && ap - m.aperture_off < m.size) {
        if (!payload.data.empty())
          mem_.write(m.dev_offset + (ap - m.aperture_off),
                     std::span<const std::uint8_t>(payload.data));
        return;
      }
    }
  }
  // Writes to unmapped space are dropped (master abort), as on hardware.
}

void Gpu::handle_read(std::uint64_t addr, std::uint32_t len, bool with_data,
                      pcie::ReadReply reply) {
  const std::uint64_t off = addr - mmio_base_;
  if (off >= GpuMmio::kBar1Aperture) {
    std::uint64_t ap = off - GpuMmio::kBar1Aperture;
    // kSample: see handle_write — mappings referenced here pre-date the
    // access by contract; only reset() may legitimately conflict.
    APN_CHECK_ACCESS(bar1_maps_, kSample);
    for (const Bar1Mapping& m : bar1_maps_) {
      if (ap >= m.aperture_off && ap - m.aperture_off < m.size) {
        std::uint64_t dev_off = m.dev_offset + (ap - m.aperture_off);
        // Head latency pipelines across outstanding reads; completion
        // generation serializes at the BAR1 read rate (the Fermi
        // 150 MB/s bottleneck).
        m_bar1_reads_->inc();
        const Time t_req = sim_->now();
        auto complete = [this, dev_off, len, with_data, t_req, reply] {
          trace_bar1_.span("gpu", "bar1_read", t_req, sim_->now(),
                           {{"dev_offset", dev_off}, {"bytes", len}});
          pcie::Payload p = pcie::Payload::timing(len);
          if (with_data) {
            p.data.resize(len);
            mem_.read(dev_off, std::span<std::uint8_t>(p.data));
          }
          reply(std::move(p));
        };
        static_assert(sim::Simulator::stores_inline<decltype(complete)>(),
                      "the BAR1 read completion event must not heap-allocate");
        bar1_reads_.send(Bytes(len), std::move(complete));
        return;
      }
    }
  }
  // Reads of unmapped space complete with zeros after a nominal delay.
  sim_->after(arch_.unmapped_read_latency,
              [len, reply] { reply(pcie::Payload::timing(len)); });
}

}  // namespace apn::gpu
