// Sparse GPU global memory: 64 KB pages allocated on first touch, so a
// simulated 6 GB board costs only what the workload actually writes.
// Addresses here are *device offsets* (0 .. mem_bytes); UVA translation
// lives in the simcuda runtime.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
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

/// First-fit free-list allocator over a device-memory offset space.
/// Allocations are aligned to 256 B (CUDA's minimum alignment).
class DeviceAllocator {
 public:
  explicit DeviceAllocator(std::uint64_t size) { free_[0] = size; }

  static constexpr std::uint64_t kAlign = 256;

  /// Returns device offset; throws std::bad_alloc when full.
  std::uint64_t allocate(std::uint64_t size) {
    std::uint64_t need = (size + kAlign - 1) / kAlign * kAlign;
    if (need == 0) need = kAlign;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= need) {
        std::uint64_t base = it->first;
        std::uint64_t remaining = it->second - need;
        free_.erase(it);
        if (remaining > 0) free_[base + need] = remaining;
        live_[base] = need;
        used_ += need;
        return base;
      }
    }
    throw std::bad_alloc();
  }

  void deallocate(std::uint64_t base) {
    auto it = live_.find(base);
    if (it == live_.end())
      throw std::invalid_argument("deallocate: unknown block");
    std::uint64_t size = it->second;
    live_.erase(it);
    used_ -= size;
    // Insert and coalesce with neighbors.
    auto ins = free_.emplace(base, size).first;
    if (ins != free_.begin()) {
      auto prev = std::prev(ins);
      if (prev->first + prev->second == ins->first) {
        prev->second += ins->second;
        free_.erase(ins);
        ins = prev;
      }
    }
    auto next = std::next(ins);
    if (next != free_.end() && ins->first + ins->second == next->first) {
      ins->second += next->second;
      free_.erase(next);
    }
  }

  std::uint64_t used_bytes() const { return used_; }
  std::size_t live_blocks() const { return live_.size(); }

 private:
  std::map<std::uint64_t, std::uint64_t> free_;  // base -> size
  std::unordered_map<std::uint64_t, std::uint64_t> live_;
  std::uint64_t used_ = 0;
};

}  // namespace apn::gpu
