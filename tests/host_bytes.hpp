// Test helpers for data in a node's simulated host memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pcie/memory.hpp"

namespace apn::test_util {

/// A new host allocation holding `data`.
inline std::uint64_t host_buf(pcie::HostMemory& host,
                              const std::vector<std::uint8_t>& data) {
  const std::uint64_t addr = host.alloc(data.size());
  std::ranges::copy(data, host.bytes(addr, data.size()).begin());
  return addr;
}

/// A copy of [addr, addr+n).
inline std::vector<std::uint8_t> host_bytes(pcie::HostMemory& host,
                                            std::uint64_t addr,
                                            std::uint64_t n) {
  std::span<const std::uint8_t> b = host.bytes(addr, n);
  return {b.begin(), b.end()};
}

}  // namespace apn::test_util
