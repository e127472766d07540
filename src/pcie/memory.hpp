// Host DRAM behind the root complex / integrated memory controller.
//
// Host buffers are simulated bus addresses, as GPU buffers are: `alloc(n)`
// hands out 4 KB pages of a fixed range below the CUDA UVA base in call
// order, never process pointers. An allocation gets zeroed backing bytes
// on its first `bytes()` call or data-carrying DMA write; until then data
// reads return zeros, so timing-only buffers cost no host memory.
// CPU access (`bytes()`) outside every live allocation throws
// std::out_of_range; DMA there is timing-only, which keeps stray addresses
// safe. A read with `with_data = false` copies nothing, even when backed.
//
// A read's access latency pipelines across outstanding reads (DRAM banks)
// and its completion then serializes at the memory-port rate: a read
// queued at t completes at max(t + read_latency, prev) + len / read_rate.
// That is a sim::Channel with latency read_latency, so a read costs one
// event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/range_allocator.hpp"
#include "pcie/fabric.hpp"
#include "sim/channel.hpp"

namespace apn::pcie {

struct HostMemoryParams {
  Rate read_rate{8e9};  ///< memory-controller completion rate
  Time read_latency = units::ns(300);
};

class HostMemory : public Device {
 public:
  /// The simulated range host buffers come from (1 TB at 1 TB).
  static constexpr std::uint64_t kBase = 1ull << 40;
  static constexpr std::uint64_t kSize = 1ull << 40;
  static constexpr std::uint64_t kPageBytes = 4096;

  HostMemory(sim::Simulator& sim, HostMemoryParams params = {})
      : read_port_(sim, sim::ChannelParams{params.read_rate, 0,
                                           params.read_latency}) {
    set_pcie_name("dram");
  }

  /// Allocate n bytes of DMA-able host memory; returns its address.
  /// kAccum: same-tick allocations take disjoint blocks, and which block
  /// goes to whom changes no timing.
  std::uint64_t alloc(std::uint64_t n) {
    APN_CHECK_ACCESS(alloc_, kAccum);
    return alloc_.allocate(n);
  }
  void free(std::uint64_t addr) {
    APN_CHECK_ACCESS(alloc_, kAccum);
    alloc_.deallocate(addr);
    backing_.erase(addr);
    APN_CHECK_ACCESS(backing_, kAccum);
  }

  /// CPU access to [addr, addr+n), backing the allocation on first use.
  /// Throws std::out_of_range unless the range is empty or lies in one live
  /// allocation.
  std::span<std::uint8_t> bytes(std::uint64_t addr, std::uint64_t n) {
    if (n == 0) return {};
    const std::uint64_t base = checked_owner(addr, n);
    return std::span<std::uint8_t>(backing(base)).subspan(addr - base, n);
  }

  /// One trivially copyable value at addr, bounds-checked like bytes().
  template <typename T>
  T load(std::uint64_t addr) {
    T v{};
    std::memcpy(&v, bytes(addr, sizeof(T)).data(), sizeof(T));
    return v;
  }
  template <typename T>
  void store(std::uint64_t addr, const T& v) {
    std::memcpy(bytes(addr, sizeof(T)).data(), &v, sizeof(T));
  }

  /// Whether the allocation holding [addr, addr+n) has backing bytes yet;
  /// throws std::out_of_range like bytes().
  bool has_backing(std::uint64_t addr, std::uint64_t n) const {
    const std::uint64_t base = checked_owner(addr, n);
    APN_CHECK_ACCESS(backing_, kSample);
    return backing_.contains(base);
  }

  /// Total backing bytes over all live allocations.
  std::uint64_t backed_bytes() const {
    std::uint64_t total = 0;
    for (const auto& [base, data] : backing_) total += data.size();
    return total;
  }

  void handle_write(std::uint64_t addr, Payload payload) override {
    if (payload.data.empty()) return;
    if (std::optional<std::uint64_t> base = owner(addr, payload.data.size()))
      std::ranges::copy(payload.data, backing(*base).begin() +
                                          static_cast<std::ptrdiff_t>(
                                              addr - *base));
  }

  void handle_read(std::uint64_t addr, std::uint32_t len, bool with_data,
                   ReadReply reply) override {
    // Access latency, then completion at the port rate (see the header).
    auto complete = [this, addr, len, with_data, reply] {
      Payload p = Payload::timing(len);
      if (with_data) read(addr, p);
      reply(std::move(p));
    };
    static_assert(sim::Simulator::stores_inline<decltype(complete)>(),
                  "the read completion event must not heap-allocate");
    read_port_.send(Bytes(len), std::move(complete));
  }

  /// DMA read of [addr, addr+p.bytes) into `p.data`; stays timing-only
  /// outside every live allocation.
  void read(std::uint64_t addr, Payload& p) const {
    std::optional<std::uint64_t> base = owner(addr, p.bytes);
    if (!base) return;
    p.data.assign(p.bytes, 0);
    APN_CHECK_ACCESS(backing_, kSample);
    auto it = backing_.find(*base);
    if (it == backing_.end()) return;
    const auto from = it->second.begin() +
                      static_cast<std::ptrdiff_t>(addr - *base);
    std::copy(from, from + static_cast<std::ptrdiff_t>(p.bytes),
              p.data.begin());
  }

 private:
  std::optional<std::uint64_t> owner(std::uint64_t addr,
                                     std::uint64_t len) const {
    // kSample: a same-tick alloc()/free() always concerns a *different*
    // buffer — buffers are allocated strictly before any transfer touches
    // them (driver contract), so the lookup result is order-independent.
    APN_CHECK_ACCESS(alloc_, kSample);
    return alloc_.owner(addr, len);
  }
  std::uint64_t checked_owner(std::uint64_t addr, std::uint64_t len) const {
    if (std::optional<std::uint64_t> base = owner(addr, len)) return *base;
    throw std::out_of_range("host access outside any allocation");
  }

  /// The allocation's bytes, zero-filled on first use.
  std::vector<std::uint8_t>& backing(std::uint64_t base) {
    APN_CHECK_ACCESS(backing_, kAccum);
    std::vector<std::uint8_t>& b = backing_[base];
    if (b.empty()) b.resize(alloc_.size_of(base));
    return b;
  }

  sim::Channel read_port_;
  RangeAllocator alloc_{kBase, kSize, kPageBytes};
  std::map<std::uint64_t, std::vector<std::uint8_t>> backing_;  // by base
};

}  // namespace apn::pcie
