// Sparse GPU global memory: 64 KB pages allocated on first touch, so a
// simulated 6 GB board costs only what the workload actually writes.
// Addresses here are *device offsets* (0 .. mem_bytes); UVA translation
// lives in the simcuda runtime.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace apn::gpu {

class DeviceMemory {
 public:
  static constexpr std::uint64_t kPageBytes = 64 * 1024;

  explicit DeviceMemory(std::uint64_t size_bytes) : size_(size_bytes) {}

  std::uint64_t size() const { return size_; }
  std::uint64_t resident_bytes() const { return pages_.size() * kPageBytes; }

  /// True when a page of [offset, offset+len) has ever been written.
  bool resident(std::uint64_t offset, std::uint64_t len) const {
    if (len == 0) return false;
    for (std::uint64_t p = offset / kPageBytes;
         p <= (offset + len - 1) / kPageBytes; ++p)
      if (pages_.contains(p)) return true;
    return false;
  }

  void write(std::uint64_t offset, std::span<const std::uint8_t> data) {
    check_range(offset, data.size());
    std::uint64_t pos = 0;
    while (pos < data.size()) {
      std::uint64_t addr = offset + pos;
      std::uint64_t page = addr / kPageBytes;
      std::uint64_t in_page = addr % kPageBytes;
      std::uint64_t n = std::min<std::uint64_t>(kPageBytes - in_page,
                                                data.size() - pos);
      std::memcpy(page_for(page).data() + in_page, data.data() + pos,
                  static_cast<std::size_t>(n));
      pos += n;
    }
  }

  void read(std::uint64_t offset, std::span<std::uint8_t> out) const {
    check_range(offset, out.size());
    std::uint64_t pos = 0;
    while (pos < out.size()) {
      std::uint64_t addr = offset + pos;
      std::uint64_t page = addr / kPageBytes;
      std::uint64_t in_page = addr % kPageBytes;
      std::uint64_t n =
          std::min<std::uint64_t>(kPageBytes - in_page, out.size() - pos);
      auto it = pages_.find(page);
      if (it != pages_.end()) {
        std::memcpy(out.data() + pos, it->second->data() + in_page,
                    static_cast<std::size_t>(n));
      } else {
        std::memset(out.data() + pos, 0, static_cast<std::size_t>(n));
      }
      pos += n;
    }
  }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  void check_range(std::uint64_t offset, std::uint64_t len) const {
    if (offset + len > size_)
      throw std::out_of_range("device memory access out of range");
  }

  Page& page_for(std::uint64_t page) {
    auto& p = pages_[page];
    if (!p) {
      p = std::make_unique<Page>();
      p->fill(0);
    }
    return *p;
  }

  std::uint64_t size_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

/// CUDA's minimum allocation alignment (device allocations are
/// RangeAllocator blocks of this granularity).
inline constexpr std::uint64_t kAllocAlign = 256;

}  // namespace apn::gpu
