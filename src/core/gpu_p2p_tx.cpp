#include "core/gpu_p2p_tx.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/card.hpp"

namespace apn::core {

GpuP2pTx::GpuP2pTx(ApenetCard& card, const ApenetParams& params)
    : card_(card),
      params_(params),
      sim_(card.simulator()),
      jobs_(sim_),
      window_(sim_, params.p2p_prefetch_window),
      fifo_(sim_, params.gpu_tx_fifo_bytes) {
  trace_ = trace::Track::open(card.fabric().name(), "apenet.gpu_tx");
  auto& m = trace::MetricsRegistry::global();
  m_requests_ = &m.counter("card.gpu_tx.requests");
  m_bytes_ = &m.counter("card.gpu_tx.bytes");
  engine();
}

void GpuP2pTx::submit(GpuTxJob job) { jobs_.push(std::move(job)); }

void GpuP2pTx::issue_request(gpu::Gpu& gpu, std::uint64_t dev_offset,
                             std::uint32_t len) {
  ++requests_issued_;
  APN_CHECK_ACCESS(requests_issued_, kAccum);
  m_requests_->inc();
  trace_.instant("card", "p2p_req", sim_.now(),
                 {{"dev_offset", dev_offset}, {"bytes", len}});
  gpu::P2pReadDescriptor desc{};
  desc.dev_offset = dev_offset;
  desc.len = len;
  desc.reply_addr = card_.gpu_landing_addr();
  desc.tag = requests_issued_;
  if (!active_->job.carry_data) desc.flags = gpu::kP2pTimingOnly;
  pcie::Payload p;
  p.bytes = params_.p2p_descriptor_bytes;
  p.data.resize(sizeof(desc));
  std::memcpy(p.data.data(), &desc, sizeof(desc));
  card_.fabric().post_write(card_, gpu.mailbox_addr(), std::move(p));
}

void GpuP2pTx::on_data_arrival(pcie::Payload payload) {
  if (!active_) return;  // stale arrival after an aborted job: drop
  Active& a = *active_;
  std::uint64_t n = payload.bytes;
  bytes_read_ += n;
  APN_CHECK_ACCESS(bytes_read_, kAccum);
  a.arrived += n;
  APN_CHECK_ACCESS(a.arrived, kAccum);
  m_bytes_->add(n);
  if (a.job.carry_data && !payload.data.empty()) {
    a.buffer.insert(a.buffer.end(), payload.data.begin(), payload.data.end());
    APN_CHECK_ACCESS(a.buffer, kWrite);
  }
  if (a.uses_window) window_.release(static_cast<std::int64_t>(n));
  a.arrived_pool.release(static_cast<std::int64_t>(n));
  // kSample: the engine may rewrite v1_wait_target in the same tick an
  // arrival lands. Both orders are correct by the re-check protocol — the
  // engine tests `arrived < target` before waiting, and this arrival opens
  // the gate when the target was already in place.
  APN_CHECK_ACCESS(a.v1_wait_target, kSample);
  if (a.v1_wait && a.arrived >= a.v1_wait_target) a.v1_wait->open();
  if (a.arrived >= a.job.proto.msg_bytes) a.all_arrived->open();
}

sim::Coro GpuP2pTx::packetize() {
  Active& a = *active_;
  const std::uint32_t total = a.job.proto.msg_bytes;
  a.total_packets = (total + kMaxPacketPayload - 1) / kMaxPacketPayload;
  auto tx_done = a.job.tx_done;
  auto sent = std::make_shared<std::uint64_t>(0);
  const std::uint64_t total_packets = a.total_packets;

  std::uint64_t off = 0;
  while (off < total) {
    const std::uint32_t size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxPacketPayload, total - off));
    co_await a.arrived_pool.acquire(size);
    if (params_.p2p_tx_version == P2pTxVersion::kV2) {
      // V2: the Nios II supervises every outgoing GPU packet.
      co_await card_.nios_resource().use(params_.nios.tx_gpu_v2_per_packet);
    }
    ApPacket pkt;
    pkt.hdr = a.job.proto;
    pkt.hdr.dst_vaddr = a.job.proto.msg_vaddr + off;
    if (a.job.carry_data) {
      pkt.payload = pcie::Payload::of(std::vector<std::uint8_t>(
          a.buffer.begin() + static_cast<std::ptrdiff_t>(off),
          a.buffer.begin() + static_cast<std::ptrdiff_t>(off + size)));
    } else {
      pkt.payload = pcie::Payload::timing(size);
    }
    card_.inject(std::move(pkt), [this, size, sent, total_packets, tx_done] {
      fifo_.release(size);
      if (++*sent == total_packets && tx_done) tx_done->open();
    });
    off += size;
  }
  if (total == 0 && tx_done) tx_done->open();
  a.packetize_done->open();
}

sim::Coro GpuP2pTx::engine() {
  for (;;) {
    GpuTxJob job = co_await jobs_.pop();
    const Time t_job = sim_.now();
    const std::uint32_t total = job.proto.msg_bytes;
    gpu::Gpu* gpu = job.gpu;
    active_ = std::make_unique<Active>(sim_, std::move(job));
    Active& a = *active_;

    const P2pTxVersion ver = params_.p2p_tx_version;
    if (ver == P2pTxVersion::kV1) {
      // Software path: one <=4 KB request at a time, each built by the
      // Nios II, each waiting for its data before the next is issued.
      packetize();
      while (a.issued < total) {
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kMaxPacketPayload, total - a.issued));
        co_await card_.nios_resource().use(
            params_.nios.tx_gpu_v1_per_request);
        co_await fifo_.acquire(chunk);
        a.v1_wait_target = a.issued + chunk;
        APN_CHECK_ACCESS(a.v1_wait_target, kWrite);
        a.v1_wait = std::make_shared<sim::Gate>(sim_);
        issue_request(*gpu, a.job.dev_offset + a.issued, chunk);
        a.issued += chunk;
        APN_CHECK_ACCESS(a.issued, kWrite);
        co_await a.v1_wait->wait();
        a.v1_wait.reset();
      }
    } else if (ver == P2pTxVersion::kV2) {
      // V2: *batched* prefetch. The engine reserves a window's worth of
      // TX FIFO space, issues hardware-paced read requests for it, and
      // waits for the whole batch to land before prefetching the next one
      // ("limited pre-fetching" in the paper) — which is why the read
      // bandwidth keeps scaling with the window size up to 32 KB (Fig. 4).
      co_await card_.nios_resource().use(params_.nios.tx_gpu_setup);
      trace_.span("card", "tx_setup", t_job, sim_.now(), {{"bytes", total}});
      packetize();
      while (a.issued < total) {
        const std::uint64_t batch = std::min<std::uint64_t>(
            params_.p2p_prefetch_window, total - a.issued);
        std::uint64_t batched = 0;
        while (batched < batch) {
          const std::uint32_t chunk = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(params_.p2p_request_bytes,
                                      batch - batched));
          co_await fifo_.acquire(chunk);
          issue_request(*gpu, a.job.dev_offset + a.issued, chunk);
          a.issued += chunk;
          APN_CHECK_ACCESS(a.issued, kWrite);
          batched += chunk;
          co_await sim::delay(sim_, params_.p2p_request_interval);
        }
        // The Nios II supervises the refill while the batch streams back.
        card_.nios_resource().post(params_.nios.tx_gpu_v3_per_refill);
        a.v1_wait_target = a.issued;
        APN_CHECK_ACCESS(a.v1_wait_target, kWrite);
        a.v1_wait = std::make_shared<sim::Gate>(sim_);
        // kSample: an arrival in this same tick may still be raising
        // `arrived`; if it beats us the test skips the wait, if not the
        // arrival opens the gate. Both orders converge (see on_data_arrival).
        APN_CHECK_ACCESS(a.arrived, kSample);
        if (a.arrived < a.v1_wait_target) co_await a.v1_wait->wait();
        a.v1_wait.reset();
      }
    } else {
      // V3: unbounded sliding-window prefetch — requests are issued as
      // fast as window credits and TX FIFO space allow, keeping the GPU
      // read-request queue full, back-reacting only to almost-full FIFOs.
      co_await card_.nios_resource().use(params_.nios.tx_gpu_setup);
      trace_.span("card", "tx_setup", t_job, sim_.now(), {{"bytes", total}});
      a.uses_window = true;
      packetize();
      std::uint64_t since_refill = 0;
      while (a.issued < total) {
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(params_.p2p_request_bytes,
                                    total - a.issued));
        co_await window_.acquire(chunk);
        co_await fifo_.acquire(chunk);
        issue_request(*gpu, a.job.dev_offset + a.issued, chunk);
        a.issued += chunk;
        APN_CHECK_ACCESS(a.issued, kWrite);
        since_refill += chunk;
        if (since_refill >= params_.p2p_refill_interval_bytes) {
          since_refill = 0;
          // V3 refill supervision loads the Nios II but does not gate the
          // hardware data path.
          card_.nios_resource().post(params_.nios.tx_gpu_v3_per_refill);
        }
        co_await sim::delay(sim_, params_.p2p_request_interval);
      }
    }
    co_await a.packetize_done->wait();
    // Whole-job span: TX overhead + GPU read streaming + packet injection.
    trace_.span("card", "gpu_tx_job", t_job, sim_.now(),
                {{"bytes", total},
                 {"version", static_cast<int>(ver) + 1}});
    active_.reset();
  }
}

}  // namespace apn::core
