#include "core/card.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/gpu_p2p_tx.hpp"

namespace apn::core {

ApenetCard::ApenetCard(sim::Simulator& sim, pcie::Fabric& fabric,
                       ApenetParams params, TorusCoord me,
                       std::uint64_t mmio_base)
    : sim_(&sim),
      fabric_(&fabric),
      params_(params),
      log_("apenet" + coord_str(me)),
      me_(me),
      mmio_base_(mmio_base),
      nios_(sim),
      injection_(sim),
      host_tx_queue_(sim),
      host_tx_fifo_(sim, params_.tx_fifo_bytes),
      host_read_window_(sim, params_.host_read_window),
      rx_queue_(sim),
      rx_events_(sim) {
  set_pcie_name("apenet");
  trace_rx_ = trace::Track::open(fabric.name(), "apenet.rx");
  trace_host_tx_ = trace::Track::open(fabric.name(), "apenet.host_tx");
  auto& m = trace::MetricsRegistry::global();
  m_rx_packets_ = &m.counter("card.rx.packets");
  m_rx_drops_ = &m.counter("card.rx.drops");
  m_rx_bytes_ = &m.counter("card.rx.bytes");
  m_tx_packets_ = &m.counter("card.tx.packets");
  gpu_tx_ = std::make_unique<GpuP2pTx>(*this, params_);
  host_tx_engine();
  rx_processor();
}

ApenetCard::~ApenetCard() = default;

void ApenetCard::set_link(TorusPort port, sim::Channel* out,
                          ApenetCard* neighbor) {
  links_[static_cast<std::size_t>(port)] = LinkOut{out, neighbor};
  trace_links_[static_cast<std::size_t>(port)] = trace::Track::open(
      fabric_->name(), std::string("apenet.link.") + port_name(port));
}

void ApenetCard::add_buffer(BufListEntry entry) {
  if (entry.is_gpu) {
    auto& table = gpu_v2p_[entry.gpu];
    if (!table) table = std::make_unique<PageTable>(16);  // 64 KB GPU pages
    table->map(entry.vaddr, entry.dev_offset, entry.len);
  } else {
    // Host pages: the physical address of pinned memory is its (identity)
    // address in this model, but the table and the per-page scatter are
    // exercised exactly as on the real card.
    host_v2p_.map(entry.vaddr, entry.vaddr, entry.len);
    APN_CHECK_ACCESS(host_v2p_, kWrite);
  }
  buf_list_.push_back(entry);
  APN_CHECK_ACCESS(buf_list_, kWrite);
}

void ApenetCard::remove_buffer(std::uint64_t vaddr, std::uint32_t pid) {
  std::erase_if(buf_list_, [&](const BufListEntry& e) {
    if (e.vaddr != vaddr || e.pid != pid) return false;
    if (e.is_gpu) {
      auto it = gpu_v2p_.find(e.gpu);
      if (it != gpu_v2p_.end()) it->second->unmap(e.vaddr, e.len);
    } else {
      host_v2p_.unmap(e.vaddr, e.len);
      APN_CHECK_ACCESS(host_v2p_, kWrite);
    }
    return true;
  });
  APN_CHECK_ACCESS(buf_list_, kWrite);
}

const BufListEntry* ApenetCard::find_buffer(std::uint64_t addr,
                                            std::uint32_t pid) const {
  APN_CHECK_ACCESS(buf_list_, kRead);
  for (const BufListEntry& e : buf_list_) {
    if (pid == e.pid && addr >= e.vaddr && addr - e.vaddr < e.len) return &e;
  }
  return nullptr;
}

void ApenetCard::submit_tx(TxDescriptor d) {
  if (d.src_is_gpu) {
    GpuTxJob job;
    job.proto = d.proto;
    job.gpu = d.src_gpu;
    job.dev_offset = d.src_dev_offset;
    job.carry_data = d.carry_data;
    job.tx_done = d.tx_done;
    gpu_tx_->submit(std::move(job));
  } else {
    host_tx_queue_.push(std::move(d));
  }
}

void ApenetCard::handle_write(std::uint64_t addr, pcie::Payload payload) {
  std::uint64_t off = addr - mmio_base_;
  if (off >= kLandingZoneOff && off < kMmioSize) {
    gpu_tx_->on_data_arrival(std::move(payload));
  }
  // Other register writes carry no model behaviour.
}

void ApenetCard::handle_read(std::uint64_t /*addr*/, std::uint32_t len,
                             bool /*with_data*/, pcie::ReadReply reply) {
  auto complete = [len, reply] { reply(pcie::Payload::timing(len)); };
  static_assert(sim::Simulator::stores_inline<decltype(complete)>(),
                "the MMIO read completion must not heap-allocate");
  sim_->after(params_.mmio_read_latency, complete);
}

// ---------------------------------------------------------------------------
// Transmit path — host buffers
// ---------------------------------------------------------------------------

namespace {
/// Assembly state of one host-source message being read from host memory.
struct HostAsm {
  HostAsm(sim::Simulator& sim) : arrived_pool(sim, 0), all_arrived(sim) {}
  std::uint64_t arrived = 0;
  std::vector<std::uint8_t> buffer;
  sim::CreditPool arrived_pool;
  sim::Gate all_arrived;
};
}  // namespace

sim::Coro ApenetCard::host_tx_engine() {
  for (;;) {
    TxDescriptor d = co_await host_tx_queue_.pop();
    const Time t_job = sim_->now();
    co_await sim::delay(*sim_, params_.descriptor_fetch);
    const std::uint32_t total = d.proto.msg_bytes;
    auto as = std::make_shared<HostAsm>(*sim_);

    // Packetizer for this message (runs concurrently with the reads).
    [](ApenetCard* card, std::shared_ptr<HostAsm> as,
       TxDescriptor d) -> sim::Coro {
      const std::uint32_t total = d.proto.msg_bytes;
      const std::uint64_t total_packets =
          (total + kMaxPacketPayload - 1) / kMaxPacketPayload;
      auto sent = std::make_shared<std::uint64_t>(0);
      auto tx_done = d.tx_done;
      std::uint64_t off = 0;
      while (off < total) {
        const std::uint32_t size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kMaxPacketPayload, total - off));
        co_await as->arrived_pool.acquire(size);
        ApPacket pkt;
        pkt.hdr = d.proto;
        pkt.hdr.dst_vaddr = d.proto.msg_vaddr + off;
        if (d.carry_data &&
            as->buffer.size() >= off + size) {
          pkt.payload = pcie::Payload::of(std::vector<std::uint8_t>(
              as->buffer.begin() + static_cast<std::ptrdiff_t>(off),
              as->buffer.begin() + static_cast<std::ptrdiff_t>(off + size)));
        } else {
          pkt.payload = pcie::Payload::timing(size);
        }
        card->inject(std::move(pkt),
                     [card, size, sent, total_packets, tx_done] {
                       card->host_tx_fifo_.release(size);
                       if (++*sent == total_packets && tx_done)
                         tx_done->open();
                     });
        off += size;
      }
      if (total == 0 && tx_done) tx_done->open();
    }(this, as, d);

    // DMA-read the source buffer through the bounded read window.
    std::uint64_t issued = 0;
    while (issued < total) {
      const std::uint32_t chunk = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(params_.host_read_request_bytes,
                                  total - issued));
      co_await host_read_window_.acquire(chunk);
      co_await host_tx_fifo_.acquire(chunk);
      fabric_->read(*this, d.src_addr + issued, chunk, d.carry_data,
                    [this, as, chunk, total](pcie::Payload p) {
                      host_read_window_.release(chunk);
                      as->arrived += p.bytes;
                      if (!p.data.empty())
                        as->buffer.insert(as->buffer.end(), p.data.begin(),
                                          p.data.end());
                      as->arrived_pool.release(
                          static_cast<std::int64_t>(p.bytes));
                      if (as->arrived >= total) as->all_arrived.open();
                    });
      issued += chunk;
    }
    if (total > 0) {
      co_await as->all_arrived.wait();
    }
    // Descriptor fetch + DMA reads of the full message from host memory.
    trace_host_tx_.span("card", "host_tx_job", t_job, sim_->now(),
                        {{"bytes", total}});
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

void ApenetCard::inject(ApPacket pkt, UniqueFn<void()> on_sent) {
  // The packet and its completion share one holder, so each hop's closure
  // is a pointer or two and stays in the event node.
  struct InFlight {
    ApPacket pkt;
    UniqueFn<void()> on_sent;
  };
  auto sp = std::make_shared<InFlight>(std::move(pkt), std::move(on_sent));
  auto injected = [this, sp] {
    ++packets_injected_;
    m_tx_packets_->inc();
    if (params_.flush_at_switch) {
      // Test hook: the packet evaporates inside the switch.
      sim_->after(params_.router_latency, std::move(sp->on_sent));
      return;
    }
    if (sp->pkt.hdr.dst == me_) {
      sim_->after(params_.router_latency, [this, sp] {
        rx_queue_.push(std::move(sp->pkt));
        sp->on_sent();
      });
      return;
    }
    TorusPort port = shape_.route_next(me_, sp->pkt.hdr.dst);
    LinkOut& l = links_[static_cast<std::size_t>(port)];
    if (l.channel == nullptr || l.neighbor == nullptr) {
      // Unwired port (single-card tests): drop but complete the send.
      sim_->after(params_.router_latency, std::move(sp->on_sent));
      return;
    }
    auto hop = [this, sp, &l, port] {
      const trace::Track& lt = trace_links_[static_cast<std::size_t>(port)];
      auto deliver = [nb = l.neighbor, sp] {
        nb->receive_from_link(std::move(sp->pkt));
      };
      if (!lt) {
        // The hook captures the holder, not the 64 B UniqueFn, so the
        // hooked send's event stays inline.
        if (sp->on_sent)
          l.channel->send(sp->pkt.wire_bytes(), std::move(deliver),
                          [sp] { sp->on_sent(); });
        else
          l.channel->send(sp->pkt.wire_bytes(), std::move(deliver));
        return;
      }
      const Time t0 = sim_->now();
      const Bytes wire = sp->pkt.wire_bytes();
      l.channel->send(wire, std::move(deliver), [this, &lt, t0, wire, sp] {
        lt.span("torus", "pkt", t0, sim_->now(),
                {{"wire_bytes", wire.count()}});
        if (sp->on_sent) sp->on_sent();
      });
    };
    static_assert(sim::Simulator::stores_inline<decltype(hop)>(),
                  "the router hop event must not heap-allocate");
    sim_->after(params_.router_latency, std::move(hop));
  };
  static_assert(sim::Simulator::stores_inline<decltype(injected)>(),
                "the injection event must not heap-allocate");
  injection_.post(params_.tx_packet_overhead, std::move(injected));
}

void ApenetCard::receive_from_link(ApPacket pkt) {
  if (pkt.hdr.dst == me_) {
    sim_->after(params_.router_latency, [this, p = std::move(pkt)]() mutable {
      rx_queue_.push(std::move(p));
    });
    return;
  }
  // Transit traffic: forward out of the next dimension-ordered port.
  TorusPort port = shape_.route_next(me_, pkt.hdr.dst);
  LinkOut& l = links_[static_cast<std::size_t>(port)];
  if (l.channel == nullptr || l.neighbor == nullptr) return;  // drop
  auto sp = std::make_shared<ApPacket>(std::move(pkt));
  sim_->after(params_.router_latency, [sp, &l] {
    l.channel->send(sp->wire_bytes(), [nb = l.neighbor, sp] {
      nb->receive_from_link(std::move(*sp));
    });
  });
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

Time ApenetCard::rx_task_time(bool gpu_dest) const {
  const NiosCosts& c = params_.nios;
  APN_CHECK_ACCESS(buf_list_, kRead);
  Time t = c.rx_buflist_base +
           static_cast<Time>(buf_list_.size()) * c.rx_buflist_per_entry +
           (params_.rx_hw_v2p ? c.rx_hw_v2p_lookup : c.rx_v2p) +
           c.rx_dma_kick;
  if (gpu_dest) t += c.rx_gpu_window_extra;
  return t;
}

sim::Coro ApenetCard::rx_processor() {
  for (;;) {
    ApPacket pkt = co_await rx_queue_.pop();
    ++packets_received_;
    m_rx_packets_->inc();
    const Time t_pkt = sim_->now();
    const BufListEntry* entry =
        find_buffer(pkt.hdr.dst_vaddr, pkt.hdr.dst_pid);
    // Firmware: BUF_LIST traversal + V2P translation + RX DMA programming.
    co_await nios_.use(rx_task_time(entry != nullptr && entry->is_gpu));
    // The span covers Nios queue wait + processing — the queueing is the
    // contention the paper identifies, so it belongs in the picture.
    trace_rx_.span("card", "rx_nios", t_pkt, sim_->now(),
                   {{"vaddr", pkt.hdr.dst_vaddr},
                    {"bytes", pkt.payload.bytes},
                    {"gpu_dest", entry != nullptr && entry->is_gpu}});
    if (entry == nullptr) {
      ++rx_drops_;
      m_rx_drops_->inc();
      trace_rx_.instant("card", "rx_drop", sim_->now(),
                        {{"vaddr", pkt.hdr.dst_vaddr}});
      log_.warn(sim_->now(),
                "RX drop: no BUF_LIST entry for vaddr 0x%llx (pid %u)",
                static_cast<unsigned long long>(pkt.hdr.dst_vaddr),
                pkt.hdr.dst_pid);
      continue;
    }
    deliver_rx_write(pkt, *entry);
  }
}

void ApenetCard::deliver_rx_write(const ApPacket& pkt,
                                  const BufListEntry& entry) {
  rx_bytes_ += pkt.payload.bytes;
  m_rx_bytes_->add(pkt.payload.bytes);
  if (!entry.is_gpu) {
    // Host destination: the RX RDMA logic converts the virtual address
    // into a scatter list of 4 KB physical pages (paper §III-B) and emits
    // one DMA write per contiguous page run.
    PacketHeader hdr = pkt.hdr;
    APN_CHECK_ACCESS(host_v2p_, kRead);
    const std::uint64_t page = host_v2p_.page_bytes();
    std::uint64_t pos = 0;
    const std::uint64_t total = pkt.payload.bytes;
    while (pos < total) {
      const std::uint64_t vaddr = pkt.hdr.dst_vaddr + pos;
      const std::uint64_t in_page = vaddr & (page - 1);
      const std::uint64_t n = std::min(page - in_page, total - pos);
      std::optional<std::uint64_t> phys = host_v2p_.lookup(vaddr);
      if (!phys) {  // page vanished (deregistered mid-flight): drop rest
        ++rx_drops_;
        log_.warn(sim_->now(), "RX drop: HOST_V2P miss at 0x%llx",
                  static_cast<unsigned long long>(vaddr));
        return;
      }
      pcie::Payload slice;
      slice.bytes = n;
      if (!pkt.payload.data.empty()) {
        slice.data.assign(
            pkt.payload.data.begin() + static_cast<std::ptrdiff_t>(pos),
            pkt.payload.data.begin() + static_cast<std::ptrdiff_t>(pos + n));
      }
      const bool last = pos + n >= total;
      fabric_->post_write(*this, *phys, std::move(slice),
                          [this, hdr, last] {
                            if (last) account_rx_delivery(hdr);
                          });
      pos += n;
    }
    return;
  }

  // GPU destination: write through the P2P sliding window, switching the
  // window register whenever the 64 KB target page changes. The GPU_V2P
  // table resolves the UVA to the device page descriptor.
  gpu::Gpu* g = entry.gpu;
  const PageTable* v2p = gpu_v2p(g);
  const std::uint64_t dev_off =
      v2p != nullptr && v2p->is_mapped(pkt.hdr.dst_vaddr)
          ? *v2p->lookup(pkt.hdr.dst_vaddr)
          : entry.dev_offset + (pkt.hdr.dst_vaddr - entry.vaddr);
  constexpr std::uint64_t kWin = gpu::GpuMmio::kWindowBytes;
  std::uint64_t pos = 0;
  const std::uint64_t total = pkt.payload.bytes;
  PacketHeader hdr = pkt.hdr;
  while (pos < total) {
    const std::uint64_t addr = dev_off + pos;
    const std::uint64_t page = addr / kWin * kWin;
    const std::uint64_t in_page = addr - page;
    const std::uint64_t n = std::min(kWin - in_page, total - pos);
    auto it = gpu_window_.find(g);
    APN_CHECK_ACCESS(gpu_window_, kRead);
    if (it == gpu_window_.end() || it->second != page) {
      gpu_window_[g] = page;
      APN_CHECK_ACCESS(gpu_window_, kWrite);
      pcie::Payload ctl;
      ctl.bytes = 8;
      ctl.data.resize(8);
      std::memcpy(ctl.data.data(), &page, 8);
      fabric_->post_write(*this, g->window_ctl_addr(), std::move(ctl));
    }
    pcie::Payload slice;
    slice.bytes = n;
    if (!pkt.payload.data.empty()) {
      slice.data.assign(
          pkt.payload.data.begin() + static_cast<std::ptrdiff_t>(pos),
          pkt.payload.data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    }
    const bool last = pos + n >= total;
    fabric_->post_write(*this, g->window_aperture_addr() + in_page,
                        std::move(slice), [this, hdr, last] {
                          if (last) account_rx_delivery(hdr);
                        });
    pos += n;
  }
}

void ApenetCard::account_rx_delivery(const PacketHeader& hdr) {
  RxMsgState& st = rx_msgs_[hdr.msg_id];
  // kAccum: per-packet completion counting commutes — the msg completes
  // when the count reaches total_packets regardless of which same-tick
  // delivery got there, and entries of distinct msg_ids are independent.
  APN_CHECK_ACCESS(rx_msgs_, kAccum);
  // dst_vaddr is per-packet; payload length is implicit in accounting:
  // we count the packet as fully written when its last write delivered.
  st.written += 1;
  const std::uint64_t total_packets =
      (hdr.msg_bytes + kMaxPacketPayload - 1) / kMaxPacketPayload;
  if (st.written >= std::max<std::uint64_t>(total_packets, 1)) {
    rx_msgs_.erase(hdr.msg_id);
    RdmaEvent ev;
    ev.kind = RdmaEvent::Kind::kRxDone;
    ev.msg_id = hdr.msg_id;
    ev.vaddr = hdr.msg_vaddr;
    ev.bytes = hdr.msg_bytes;
    ev.peer = hdr.src;
    sim_->after(params_.rx_event_delivery,
                [this, ev] { rx_events_.push(ev); });
  }
}

}  // namespace apn::core
