#include "simcuda/runtime.hpp"

#include <stdexcept>

namespace apn::cuda {

Runtime::Runtime(sim::Simulator& sim, pcie::HostMemory& host,
                 std::vector<gpu::Gpu*> gpus, RuntimeParams params)
    : sim_(&sim), host_(&host), gpus_(std::move(gpus)), params_(params) {}

DevPtr Runtime::malloc_device(int device, std::uint64_t size) {
  gpu::Gpu& g = this->device(device);
  std::uint64_t off = g.allocator().allocate(size);
  return kUvaBase + static_cast<std::uint64_t>(device) * kUvaStride + off;
}

void Runtime::free_device(DevPtr ptr) {
  PointerInfo info = pointer_info(ptr);
  if (!info.is_device) throw std::invalid_argument("free of non-device ptr");
  device(info.device).allocator().deallocate(info.dev_offset);
}

PointerInfo Runtime::pointer_info(std::uint64_t addr) const {
  if (addr < kUvaBase) return PointerInfo{};
  std::uint64_t rel = addr - kUvaBase;
  int dev = static_cast<int>(rel / kUvaStride);
  if (dev >= static_cast<int>(gpus_.size()))
    return PointerInfo{};  // not ours; treat as host
  return PointerInfo{true, dev, rel % kUvaStride};
}

P2pTokens Runtime::get_p2p_tokens(DevPtr ptr, std::uint64_t size) const {
  PointerInfo info = pointer_info(ptr);
  if (!info.is_device)
    throw std::invalid_argument("P2P tokens requested for host pointer");
  return P2pTokens{info.device, info.dev_offset, size};
}

sim::Future<Runtime::Bar1MapResult> Runtime::bar1_map_async(
    DevPtr ptr, std::uint64_t size) {
  PointerInfo info = pointer_info(ptr);
  if (!info.is_device)
    throw std::invalid_argument("BAR1 map of host pointer");
  sim::Future<Bar1MapResult> result(*sim_);
  gpu::Gpu& g = device(info.device);
  std::uint64_t addr = g.bar1_map(info.dev_offset, size);
  // Mapping requires a full reconfiguration of the GPU (paper §III).
  sim_->after(g.arch().bar1_map_cost,
              [result, addr]() mutable { result.set(Bar1MapResult{addr}); });
  return result;
}

MemcpyKind Runtime::classify(std::uint64_t dst, std::uint64_t src) const {
  bool d_dev = pointer_info(dst).is_device;
  bool s_dev = pointer_info(src).is_device;
  if (d_dev && s_dev) return MemcpyKind::kDeviceToDevice;
  if (d_dev) return MemcpyKind::kHostToDevice;
  if (s_dev) return MemcpyKind::kDeviceToHost;
  throw std::invalid_argument("host-to-host memcpy through CUDA runtime");
}

Time Runtime::transfer_time(MemcpyKind kind, int dev, Bytes n) const {
  const gpu::GpuArch& a = gpus_.at(static_cast<std::size_t>(dev))->arch();
  // On-device copies run at internal memory bandwidth, far above PCIe.
  Rate rate = kind == MemcpyKind::kDeviceToHost   ? a.dma_d2h_rate
              : kind == MemcpyKind::kHostToDevice ? a.dma_h2d_rate
                                                  : Rate(100e9);
  return a.dma_setup + units::transfer_time(n, rate);
}

sim::Resource& Runtime::engine_for(MemcpyKind kind, int dev) {
  gpu::Gpu& g = device(dev);
  return kind == MemcpyKind::kHostToDevice ? g.copy_engine_h2d()
                                           : g.copy_engine_d2h();
}

void Runtime::move_bytes(std::uint64_t dst, std::uint64_t src,
                         std::uint64_t n) {
  if (n == 0) return;
  PointerInfo di = pointer_info(dst);
  PointerInfo si = pointer_info(src);
  if (di.is_device && si.is_device) {
    std::vector<std::uint8_t> tmp(n);
    device(si.device).memory().read(si.dev_offset,
                                    std::span<std::uint8_t>(tmp));
    device(di.device).memory().write(di.dev_offset,
                                     std::span<const std::uint8_t>(tmp));
  } else if (di.is_device) {
    gpu::DeviceMemory& mem = device(di.device).memory();
    if (!host_->has_backing(src, n) && !mem.resident(di.dev_offset, n))
      return;  // zeros over zeros
    mem.write(di.dev_offset, host_->bytes(src, n));
  } else if (si.is_device) {
    const gpu::DeviceMemory& mem = device(si.device).memory();
    if (!host_->has_backing(dst, n) && !mem.resident(si.dev_offset, n))
      return;  // zeros over zeros
    mem.read(si.dev_offset, host_->bytes(dst, n));
  } else {
    throw std::invalid_argument("host-to-host copy through CUDA runtime");
  }
}

void Runtime::upload(DevPtr dst, std::span<const std::byte> src) {
  PointerInfo info = pointer_info(dst);
  if (!info.is_device) throw std::invalid_argument("upload to host address");
  device(info.device).memory().write(
      info.dev_offset,
      {reinterpret_cast<const std::uint8_t*>(src.data()), src.size()});
}

void Runtime::download(DevPtr src, std::span<std::byte> dst) {
  PointerInfo info = pointer_info(src);
  if (!info.is_device)
    throw std::invalid_argument("download from host address");
  device(info.device).memory().read(
      info.dev_offset,
      {reinterpret_cast<std::uint8_t*>(dst.data()), dst.size()});
}

Done Runtime::memcpy_sync(std::uint64_t dst, std::uint64_t src,
                          std::uint64_t n) {
  MemcpyKind kind = classify(dst, src);
  PointerInfo di = pointer_info(dst);
  PointerInfo si = pointer_info(src);
  int dev = di.is_device ? di.device : si.device;

  Done done(*sim_);
  // A synchronous copy pays the driver/sync overhead up front (the host
  // spins in cuMemcpy), then occupies the copy engine for the transfer.
  Time overhead = kind == MemcpyKind::kDeviceToHost
                      ? params_.d2h_sync_overhead
                      : params_.h2d_sync_overhead;
  sim_->after(overhead, [this, kind, dev, dst, src, n, done]() mutable {
    engine_for(kind, dev).post(transfer_time(kind, dev, Bytes(n)),
                               [this, dst, src, n, done]() mutable {
                                 move_bytes(dst, src, n);
                                 done.set(Unit{});
                               });
  });
  return done;
}

Stream::Stream(Runtime& rt, int device)
    : rt_(&rt), device_(device), tail_(rt.simulator()) {
  tail_.set(Unit{});  // empty stream: already complete
}

Done Stream::launch_kernel(Time duration) {
  Done done(rt_->simulator());
  Done prev = tail_;
  tail_ = done;
  Runtime* rt = rt_;
  int dev = device_;
  // Kernel begins once the previous op in this stream completed, then
  // occupies the GPU compute engine for its duration.
  auto start = [rt, dev, duration, done]() mutable {
    rt->device(dev).compute_engine().post(duration,
                                          [done]() mutable { done.set({}); });
  };
  if (prev.ready()) {
    rt->simulator().after(rt->params().enqueue_overhead, start);
  } else {
    [](Done prev, auto start) -> sim::Coro {
      co_await prev;
      start();
    }(prev, std::move(start));
  }
  return done;
}

Done Stream::memcpy_async(std::uint64_t dst, std::uint64_t src,
                          std::uint64_t n) {
  Done done(rt_->simulator());
  Done prev = tail_;
  tail_ = done;
  Runtime* rt = rt_;
  MemcpyKind kind = rt->classify(dst, src);
  cuda::PointerInfo di = rt->pointer_info(dst);
  cuda::PointerInfo si = rt->pointer_info(src);
  int dev = di.is_device ? di.device : si.device;

  auto start = [rt, kind, dev, dst, src, n, done]() mutable {
    rt->engine_for(kind, dev).post(rt->transfer_time(kind, dev, Bytes(n)),
                                   [rt, dst, src, n, done]() mutable {
                                     rt->move_bytes(dst, src, n);
                                     done.set({});
                                   });
  };
  if (prev.ready()) {
    rt->simulator().after(rt->params().enqueue_overhead, start);
  } else {
    [](Done prev, auto start) -> sim::Coro {
      co_await prev;
      start();
    }(prev, std::move(start));
  }
  return done;
}

}  // namespace apn::cuda
