// Quickstart: bring up a two-node APEnet+ cluster, register a GPU buffer
// on the remote node, and PUT GPU memory to it peer-to-peer — the minimal
// end-to-end use of the library's public API.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <span>

#include "cluster/cluster.hpp"

using namespace apn;

int main() {
  // A deterministic simulation clock drives everything.
  sim::Simulator sim;

  // Two nodes of the paper's Cluster I: Xeon host + Fermi C2050 + APEnet+
  // card on a PLX switch, wired as a 2x1x1 torus.
  auto cluster =
      cluster::Cluster::make_cluster_i(sim, /*nodes=*/2,
                                       core::ApenetParams{},
                                       /*with_ib=*/false);

  // Allocate GPU memory on both nodes through the simulated CUDA runtime.
  const std::uint64_t kSize = 1 << 20;
  cuda::DevPtr src = cluster->node(0).cuda().malloc_device(0, kSize);
  cuda::DevPtr dst = cluster->node(1).cuda().malloc_device(0, kSize);

  // Fill the source buffer (functionally, outside simulated time; think
  // of it as a kernel's output).
  std::vector<std::uint8_t> pattern(kSize);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i * 131);
  cluster->node(0).cuda().upload(src, std::as_bytes(std::span(pattern)));

  // Host program, written as a simulation process.
  [](cluster::Cluster* c, cuda::DevPtr src, cuda::DevPtr dst,
     std::uint64_t n) -> sim::Coro {
    sim::Simulator& sim = c->simulator();

    // 1. The receiver registers its GPU buffer: the RDMA library fetches
    //    the P2P tokens and programs the card's BUF_LIST / GPU_V2P.
    co_await c->rdma(1).register_buffer(dst, n, core::MemType::kGpu);
    std::printf("[%8.2f us] node 1: GPU buffer registered (%zu bytes)\n",
                units::to_us(sim.now()), static_cast<std::size_t>(n));

    // 2. The sender PUTs its GPU buffer to the remote virtual address.
    //    MemType::kAuto demonstrates UVA-based type detection.
    Time t0 = sim.now();
    auto put = c->rdma(0).put(c->coord(1), src, n, dst, core::MemType::kAuto);
    co_await put.tx_done->wait();
    std::printf("[%8.2f us] node 0: message left the card (TX done)\n",
                units::to_us(sim.now()));

    // 3. The receiver gets a completion event when all packets landed in
    //    GPU memory through the P2P write window.
    core::RdmaEvent ev = co_await c->rdma(1).events().pop();
    std::printf("[%8.2f us] node 1: RX complete, %u bytes from %s — "
                "%.0f MB/s end to end\n",
                units::to_us(sim.now()), ev.bytes,
                core::coord_str(ev.peer).c_str(),
                units::bandwidth_MBps(Bytes(ev.bytes), sim.now() - t0));
  }(cluster.get(), src, dst, kSize);

  sim.run();

  // Verify the bytes really moved GPU-to-GPU through the whole stack.
  std::vector<std::uint8_t> out(kSize);
  cluster->node(1).cuda().download(dst, std::as_writable_bytes(std::span(out)));
  std::printf("data integrity: %s\n",
              out == pattern ? "OK (remote GPU buffer matches source)"
                             : "FAILED");
  return out == pattern ? 0 : 1;
}
