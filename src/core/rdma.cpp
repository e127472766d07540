#include "core/rdma.hpp"

#include <stdexcept>

namespace apn::core {

RdmaDevice::RdmaDevice(ApenetCard& card, cuda::Runtime* cuda_runtime,
                       std::uint32_t pid, RdmaParams params)
    : sim_(&card.simulator()),
      card_(&card),
      cuda_(cuda_runtime),
      pid_(pid),
      params_(params) {}

const RdmaDevice::Registration* RdmaDevice::find_registration(
    std::uint64_t addr, std::uint64_t len) const {
  // kSample: a same-tick registration always concerns a different buffer
  // (callers await register_buffer before operating on one), so the
  // lookup result is order-independent.
  APN_CHECK_ACCESS(cache_, kSample);
  auto it = cache_.upper_bound(addr);
  if (it == cache_.begin()) return nullptr;
  --it;
  if (addr >= it->first && addr + len <= it->first + it->second.len)
    return &it->second;
  return nullptr;
}

RdmaDevice::Registration* RdmaDevice::find_registration_mut(
    std::uint64_t addr, std::uint64_t len, std::uint64_t* base) {
  // kSample: see find_registration.
  APN_CHECK_ACCESS(cache_, kSample);
  auto it = cache_.upper_bound(addr);
  if (it == cache_.begin()) return nullptr;
  --it;
  if (addr >= it->first && addr + len <= it->first + it->second.len) {
    if (base != nullptr) *base = it->first;
    return &it->second;
  }
  return nullptr;
}

sim::Future<RdmaEvent> RdmaDevice::wait_event() {
  sim::Future<RdmaEvent> f(*sim_);
  [](RdmaDevice* self, sim::Future<RdmaEvent> f) -> sim::Coro {
    co_await sim::delay(*self->sim_, self->params_.event_poll_cost);
    RdmaEvent ev = co_await self->card_->rx_events().pop();
    f.set(ev);
  }(this, f);
  return f;
}

bool RdmaDevice::is_registered(std::uint64_t addr, std::uint64_t len) const {
  return find_registration(addr, len) != nullptr;
}

sim::Future<bool> RdmaDevice::register_buffer(std::uint64_t addr,
                                              std::uint64_t len,
                                              MemType type) {
  sim::Future<bool> done(*sim_);
  if (find_registration(addr, len) != nullptr) {
    ++cache_hits_;
    APN_CHECK_ACCESS(cache_hits_, kAccum);
    done.set(true);
    return done;
  }
  ++cache_misses_;
  APN_CHECK_ACCESS(cache_misses_, kAccum);

  bool is_gpu;
  cuda::PointerInfo pinfo;
  if (type == MemType::kAuto) {
    if (cuda_ != nullptr) pinfo = cuda_->pointer_info(addr);
    is_gpu = pinfo.is_device;
  } else {
    is_gpu = type == MemType::kGpu || type == MemType::kGpuBar1;
    if (is_gpu) {
      if (cuda_ == nullptr)
        throw std::logic_error("GPU registration without CUDA runtime");
      pinfo = cuda_->pointer_info(addr);
      if (!pinfo.is_device)
        throw std::invalid_argument("kGpu flag on a host pointer");
    }
  }

  Time cost;
  BufListEntry entry;
  entry.vaddr = addr;
  entry.len = len;
  entry.pid = pid_;
  if (is_gpu) {
    // Retrieve P2P tokens and program the card's GPU_V2P table.
    cuda::P2pTokens tokens = cuda_->get_p2p_tokens(addr, len);
    entry.is_gpu = true;
    entry.gpu = &cuda_->device(tokens.device);
    entry.dev_offset = tokens.dev_offset;
    cost = params_.register_gpu_cost +
           static_cast<Time>(tokens.page_count()) *
               params_.register_gpu_per_page;
  } else {
    std::uint64_t pages = (len + 4095) / 4096;
    cost = params_.register_host_cost +
           static_cast<Time>(pages) * params_.register_host_per_page;
  }
  if (type == MemType::kAuto) cost += params_.pointer_query_cost;

  cache_[addr] = Registration{len, is_gpu};
  // kAccum: same-tick registrations insert disjoint keys and commute.
  APN_CHECK_ACCESS(cache_, kAccum);
  sim_->after(cost, [this, entry, done]() mutable {
    card_->add_buffer(entry);
    done.set(true);
  });
  return done;
}

void RdmaDevice::deregister_buffer(std::uint64_t addr) {
  auto it = cache_.find(addr);
  if (it == cache_.end()) return;
  cache_.erase(it);
  APN_CHECK_ACCESS(cache_, kWrite);
  card_->remove_buffer(addr, pid_);
}

RdmaDevice::Put RdmaDevice::put(TorusCoord dst, std::uint64_t local_addr,
                                std::uint64_t len,
                                std::uint64_t remote_vaddr, MemType type,
                                bool carry_data) {
  Put result;
  TorusCoord me = card_->coord();
  std::uint64_t node_key =
      (static_cast<std::uint64_t>(me.x) << 16) |
      (static_cast<std::uint64_t>(me.y) << 8) |
      static_cast<std::uint64_t>(me.z);
  result.msg_id = (node_key << 40) | next_seq_++;
  APN_CHECK_ACCESS(next_seq_, kWrite);
  result.tx_done = std::make_shared<sim::Gate>(*sim_);
  do_put(dst, local_addr, len, remote_vaddr, type, carry_data,
         result.tx_done, result.msg_id);
  return result;
}

sim::Coro RdmaDevice::do_put(TorusCoord dst, std::uint64_t local_addr,
                             std::uint64_t len, std::uint64_t remote_vaddr,
                             MemType type, bool carry_data,
                             std::shared_ptr<sim::Gate> tx_done,
                             std::uint64_t msg_id) {
  // Host driver work: descriptor construction, fragmentation, doorbell.
  co_await sim::delay(*sim_, params_.put_overhead);

  bool is_gpu;
  if (type == MemType::kAuto) {
    // UVA query on the source pointer (the cost the explicit flag avoids).
    co_await sim::delay(*sim_, params_.pointer_query_cost);
    is_gpu = cuda_ != nullptr && cuda_->pointer_info(local_addr).is_device;
  } else {
    is_gpu = type == MemType::kGpu || type == MemType::kGpuBar1;
  }

  TxDescriptor d;
  d.proto.src = card_->coord();
  d.proto.dst = dst;
  d.proto.dst_pid = pid_;
  d.proto.msg_id = msg_id;
  d.proto.msg_vaddr = remote_vaddr;
  d.proto.dst_vaddr = remote_vaddr;
  d.proto.msg_bytes = static_cast<std::uint32_t>(len);
  d.carry_data = carry_data;
  d.tx_done = std::move(tx_done);

  if (is_gpu) {
    // Map the GPU buffer on the fly if it is not in the cache (§IV-A).
    if (find_registration(local_addr, len) == nullptr) {
      co_await register_buffer(local_addr, len, MemType::kGpu);
    }
    if (type == MemType::kGpuBar1) {
      // BAR1 transmission: expose the buffer through the BAR1 aperture
      // (expensive GPU reconfiguration, cached per registration) and let
      // the card's ordinary DMA-read engine fetch it with plain PCIe
      // memory reads — no P2P protocol involved.
      std::uint64_t base = 0;
      Registration* reg = find_registration_mut(local_addr, len, &base);
      if (reg->bar1_addr == 0) {
        auto mapped = cuda_->bar1_map_async(base, reg->len);
        auto r = co_await mapped;
        reg->bar1_addr = r.pcie_addr;
      }
      d.src_is_gpu = false;  // rides the host-style TX DMA path
      d.src_addr = reg->bar1_addr + (local_addr - base);
      card_->submit_tx(std::move(d));
      co_return;
    }
    cuda::P2pTokens tokens = cuda_->get_p2p_tokens(local_addr, len);
    d.src_is_gpu = true;
    d.src_gpu = &cuda_->device(tokens.device);
    d.src_dev_offset = tokens.dev_offset;
  } else {
    d.src_addr = local_addr;
  }
  card_->submit_tx(std::move(d));
}

}  // namespace apn::core
