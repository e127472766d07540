// Host DRAM behind the root complex / integrated memory controller.
//
// Host buffers in the simulation are *real process memory*: registered
// (pinned) regions are addressed by their actual pointer value, so a remote
// RDMA PUT ends with bytes landing in the destination test buffer and
// results can be validated end-to-end. Reads/writes outside any pinned
// region are timing-only (they advance the clock but touch no data), which
// keeps stray addresses safe.
//
// Pure-bandwidth benches pin their buffers like any other, so what keeps
// them cheap is the requester: a read made with `with_data = false` (the
// card's reads for a PUT posted without data) is answered with a
// timing-only payload, and no bytes are copied even from pinned memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>

#include "check/check.hpp"
#include "common/fn.hpp"
#include "pcie/fabric.hpp"
#include "sim/resource.hpp"

namespace apn::pcie {

struct HostMemoryParams {
  Rate read_rate{8e9};  ///< memory-controller completion rate
  Time read_latency = units::ns(300);
};

class HostMemory : public Device {
 public:
  HostMemory(sim::Simulator& sim, HostMemoryParams params = {})
      : sim_(&sim), params_(params), read_port_(sim) {
    set_pcie_name("dram");
  }

  /// Pin a region of process memory for device access (DMA-ability).
  /// kAccum: same-tick registrations insert disjoint keys and commute.
  void pin(void* ptr, std::size_t len) {
    pinned_[reinterpret_cast<std::uint64_t>(ptr)] = len;
    APN_CHECK_ACCESS(pinned_, kAccum);
  }
  void unpin(void* ptr) {
    pinned_.erase(reinterpret_cast<std::uint64_t>(ptr));
    APN_CHECK_ACCESS(pinned_, kAccum);
  }
  bool is_pinned(std::uint64_t addr, std::uint64_t len) const {
    return find_pinned(addr, len) != nullptr;
  }

  void handle_write(std::uint64_t addr, Payload payload) override {
    if (!payload.data.empty()) {
      if (find_pinned(addr, payload.bytes) != nullptr) {
        std::memcpy(reinterpret_cast<void*>(addr), payload.data.data(),
                    payload.data.size());
      }
    }
  }

  void handle_read(std::uint64_t addr, std::uint32_t len, bool with_data,
                   ReadReply reply) override {
    // Access latency pipelines across outstanding reads (DRAM banks);
    // completion generation serializes at the memory-port rate.
    auto accessed = [this, addr, len, with_data, reply] {
      auto complete = [this, addr, len, with_data, reply] {
        if (!with_data || find_pinned(addr, len) == nullptr) {
          reply(Payload::timing(len));
          return;
        }
        Payload p;
        p.bytes = len;
        p.data.resize(len);
        std::memcpy(p.data.data(), reinterpret_cast<const void*>(addr), len);
        reply(std::move(p));
      };
      static_assert(UniqueFn<void()>::stores_inline<decltype(complete)>(),
                    "the read-port job must not heap-allocate");
      read_port_.post(units::transfer_time(Bytes(len), params_.read_rate),
                      complete);
    };
    static_assert(sim::Simulator::stores_inline<decltype(accessed)>(),
                  "the access-latency event must not heap-allocate");
    sim_->after(params_.read_latency, accessed);
  }

 private:
  /// Returns the pinned region containing [addr, addr+len), or nullptr.
  const std::size_t* find_pinned(std::uint64_t addr,
                                 std::uint64_t len) const {
    // kSample: a same-tick pin() always concerns a *different* region —
    // buffers are registered strictly before any transfer touches them
    // (driver contract), so the lookup result is order-independent.
    APN_CHECK_ACCESS(pinned_, kSample);
    auto it = pinned_.upper_bound(addr);
    if (it == pinned_.begin()) return nullptr;
    --it;
    if (addr >= it->first && addr + len <= it->first + it->second)
      return &it->second;
    return nullptr;
  }

  sim::Simulator* sim_;
  HostMemoryParams params_;
  sim::Resource read_port_;
  std::map<std::uint64_t, std::size_t> pinned_;
};

}  // namespace apn::pcie
