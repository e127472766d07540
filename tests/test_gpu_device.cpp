#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "gpu/gpu.hpp"
#include "pcie/memory.hpp"

namespace apn::gpu {
namespace {

using units::us;

/// Requester device standing in for the NIC: collects P2P response writes.
class Collector : public pcie::Device {
 public:
  explicit Collector(sim::Simulator& sim) : sim_(&sim) {}
  void handle_write(std::uint64_t, pcie::Payload payload) override {
    bytes += payload.bytes;
    if (!payload.data.empty())
      data.insert(data.end(), payload.data.begin(), payload.data.end());
    last_at = sim_->now();
    if (first_at < 0) first_at = sim_->now();
    arrivals.push_back(sim_->now());
  }
  void handle_read(std::uint64_t, std::uint32_t len, bool,
                   pcie::ReadReply reply) override {
    reply(pcie::Payload::timing(len));
  }
  std::uint64_t bytes = 0;
  std::vector<std::uint8_t> data;
  Time first_at = -1;
  Time last_at = -1;
  std::vector<Time> arrivals;  ///< of every write, in order

 private:
  sim::Simulator* sim_;
};

constexpr std::uint64_t kGpuBase = 0xE00000000000ull;
constexpr std::uint64_t kNicBase = 0xD00000000000ull;

struct GpuFixture : ::testing::Test {
  sim::Simulator sim;
  pcie::Fabric fabric{sim};
  Collector nic{sim};
  std::unique_ptr<Gpu> gpu;

  void SetUp() override { build(fermi_c2050()); }

  void build(GpuArch arch) {
    gpu = std::make_unique<Gpu>(sim, fabric, arch, kGpuBase);
    // Fresh fabric topology per build is overkill; the fixture builds once.
    static thread_local bool dummy = false;
    (void)dummy;
  }

  void wire() {
    int root = fabric.add_root();
    int sw = fabric.add_switch(root, pcie::gen2_x16(), "plx");
    fabric.attach(*gpu, sw, pcie::gen2_x16());
    fabric.attach(nic, sw, pcie::gen2_x8());
    fabric.claim_range(*gpu, gpu->mmio_base(), gpu->mmio_size());
    fabric.claim_range(nic, kNicBase, 1 << 20);
  }

  void send_read_request(std::uint64_t dev_off, std::uint32_t len,
                         std::uint32_t flags = 0) {
    P2pReadDescriptor d{};
    d.dev_offset = dev_off;
    d.len = len;
    d.flags = flags;
    d.reply_addr = kNicBase;
    pcie::Payload p;
    p.bytes = 32;
    p.data.resize(sizeof(d));
    std::memcpy(p.data.data(), &d, sizeof(d));
    fabric.post_write(nic, gpu->mailbox_addr(), std::move(p));
  }
};

TEST_F(GpuFixture, P2pReadReturnsData) {
  wire();
  std::vector<std::uint8_t> src(512);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i);
  gpu->memory().write(0x10000, src);
  send_read_request(0x10000, 512);
  sim.run();
  EXPECT_EQ(nic.bytes, 512u);
  EXPECT_EQ(nic.data, src);
  EXPECT_EQ(gpu->p2p_requests_served(), 1u);
}

TEST_F(GpuFixture, P2pTimingOnlyFlagKeepsDataRequestTiming) {
  wire();
  std::vector<std::uint8_t> src(4096);  // eight 512 B completions
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 5);
  gpu->memory().write(0x10000, src);
  // Each request runs alone on an idle GPU and fabric, so its completion
  // times relative to its start are comparable.
  auto serve = [&](std::uint32_t flags) {
    nic.bytes = 0;
    nic.data.clear();
    nic.first_at = nic.last_at = -1;
    const Time t0 = sim.now();
    send_read_request(0x10000, 4096, flags);
    sim.run();
    return std::pair{nic.first_at - t0, nic.last_at - t0};
  };
  const auto with_data = serve(0);
  EXPECT_EQ(nic.bytes, 4096u);
  EXPECT_EQ(nic.data, src);
  const auto timing_only = serve(kP2pTimingOnly);
  EXPECT_EQ(nic.bytes, 4096u);
  EXPECT_TRUE(nic.data.empty());
  EXPECT_EQ(timing_only, with_data);
  EXPECT_EQ(gpu->p2p_requests_served(), 2u);
}

TEST_F(GpuFixture, P2pHeadLatencyVisibleOnSingleRequest) {
  wire();
  send_read_request(0, 512);
  sim.run();
  // Head latency (1.8 us) dominates a single small read; bus transit and
  // response streaming add under 1.5 us on top.
  EXPECT_GT(nic.first_at, us(1.8));
  EXPECT_LT(nic.first_at, us(3.5));
}

TEST_F(GpuFixture, P2pStreamingRateCapsAt1_5GBs) {
  wire();
  const std::uint32_t req = 512;
  const std::uint64_t total = 4ull << 20;
  for (std::uint64_t off = 0; off < total; off += req)
    send_read_request(off, req);
  sim.run();
  EXPECT_EQ(nic.bytes, total);
  double mbps = units::bandwidth_MBps(Bytes(total), nic.last_at);
  // Architectural Fermi ceiling: ~1.55 GB/s (not the 3.6 GB/s the link
  // could carry).
  EXPECT_GT(mbps, 1450.0);
  EXPECT_LT(mbps, 1600.0);
}

TEST_F(GpuFixture, WindowWriteTargetsCurrentPage) {
  wire();
  // Point the window at page 3, then write through the aperture.
  std::uint64_t page = 3 * GpuMmio::kWindowBytes;
  pcie::Payload ctl;
  ctl.bytes = 8;
  ctl.data.resize(8);
  std::memcpy(ctl.data.data(), &page, 8);
  fabric.post_write(nic, gpu->window_ctl_addr(), std::move(ctl));

  std::vector<std::uint8_t> data(256, 0x77);
  fabric.post_write(nic, gpu->window_aperture_addr() + 128,
                    pcie::Payload::of(data));
  sim.run();
  std::vector<std::uint8_t> out(256);
  gpu->memory().read(page + 128, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(gpu->window_switches(), 1u);
}

TEST_F(GpuFixture, Bar1MapAndWrite) {
  wire();
  std::uint64_t bar_addr = gpu->bar1_map(0x40000, 128 * 1024);
  EXPECT_GE(bar_addr, gpu->mmio_base() + GpuMmio::kBar1Aperture);
  std::vector<std::uint8_t> data(4096, 0x3C);
  fabric.post_write(nic, bar_addr + 64, pcie::Payload::of(data));
  sim.run();
  std::vector<std::uint8_t> out(4096);
  gpu->memory().read(0x40000 + 64, out);
  EXPECT_EQ(out, data);
}

TEST_F(GpuFixture, Bar1FermiReadIsSlow) {
  wire();
  std::uint64_t bar_addr = gpu->bar1_map(0, 1 << 20);
  const std::uint32_t chunk = 4096;
  const std::uint64_t total = 1 << 20;
  std::uint64_t done_bytes = 0;
  Time last = 0;
  for (std::uint64_t off = 0; off < total; off += chunk) {
    fabric.read(nic, bar_addr + off, chunk, true, [&](pcie::Payload p) {
      done_bytes += p.bytes;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(done_bytes, total);
  double mbps = units::bandwidth_MBps(Bytes(total), last);
  // Fermi BAR1 read-completion rate: ~150 MB/s.
  EXPECT_GT(mbps, 130.0);
  EXPECT_LT(mbps, 170.0);
}

TEST_F(GpuFixture, Bar1TimingOnlyReadKeepsDataReadTiming) {
  wire();
  std::vector<std::uint8_t> src(8192);  // two completion chunks
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 11);
  gpu->memory().write(0x40000, src);
  const std::uint64_t bar_addr = gpu->bar1_map(0x40000, src.size());
  // Each read runs alone on an idle GPU and fabric, so its latency is
  // comparable.
  auto read = [&](bool with_data) {
    const Time t0 = sim.now();
    std::pair<Time, pcie::Payload> out{-1, {}};
    fabric.read(nic, bar_addr, 8192, with_data, [&](pcie::Payload p) {
      out = {sim.now() - t0, std::move(p)};
    });
    sim.run();
    return out;
  };
  const auto [t_data, data] = read(true);
  const auto [t_timing, timing] = read(false);
  EXPECT_GT(t_data, 0);
  EXPECT_EQ(t_timing, t_data);
  EXPECT_EQ(data.bytes, src.size());
  EXPECT_EQ(timing.bytes, src.size());
  EXPECT_EQ(data.data, src);
  EXPECT_TRUE(timing.data.empty());
}

TEST_F(GpuFixture, Bar1ApertureExhaustion) {
  wire();
  EXPECT_NO_THROW(gpu->bar1_map(0, 200ull << 20));
  EXPECT_THROW(gpu->bar1_map(0, 100ull << 20), std::runtime_error);
  gpu->bar1_reset();
  EXPECT_NO_THROW(gpu->bar1_map(0, 100ull << 20));
}

TEST_F(GpuFixture, QueueDepthLimitThrottlesRequests) {
  // A tiny mailbox queue caps how much prefetching can help: with depth 2
  // the response engine can never pipeline more than 1 KB of requests.
  gpu::GpuArch arch = fermi_c2050();
  arch.p2p_max_outstanding = 2;
  build(arch);
  wire();
  const std::uint64_t total = 256 * 1024;
  for (std::uint64_t off = 0; off < total; off += 512)
    send_read_request(off, 512);
  sim.run();
  EXPECT_EQ(nic.bytes, total);
  double mbps = units::bandwidth_MBps(Bytes(total), nic.last_at);
  // Depth 2 x 512 B over a ~2.6 us pipeline: far below the 1.5 GB/s cap.
  EXPECT_LT(mbps, 900.0);
  EXPECT_EQ(gpu->p2p_queue_depth(), 0);  // fully drained
  EXPECT_EQ(gpu->p2p_requests_served(), total / 512);
}

TEST_F(GpuFixture, ZeroLengthRequestsTakeNoQueueSlot) {
  // A zero-length read sends no completion, so a slot it took would never
  // be freed: two of them would fill a depth-2 queue for good.
  gpu::GpuArch arch = fermi_c2050();
  arch.p2p_max_outstanding = 2;
  build(arch);
  wire();
  send_read_request(0, 0);
  send_read_request(0, 0);
  send_read_request(0, 512);
  sim.run();
  EXPECT_EQ(nic.bytes, 512u);
  EXPECT_EQ(gpu->p2p_queue_depth(), 0);
  EXPECT_EQ(gpu->p2p_requests_served(), 1u);
}

/// Descriptor of a timing-only P2P read of `len` bytes, as mailbox bytes.
pcie::Payload timing_only_request(std::uint32_t len) {
  P2pReadDescriptor d{};
  d.len = len;
  d.flags = kP2pTimingOnly;
  d.reply_addr = kNicBase;
  pcie::Payload p;
  p.bytes = 32;
  p.data.resize(sizeof(d));
  std::memcpy(p.data.data(), &d, sizeof(d));
  return p;
}

TEST_F(GpuFixture, P2pCompletionsFollowHeadLatencyThenStreamRate) {
  // Each 512 B completion of a request accepted at t leaves the GPU at
  // max(t + head latency, prev) + 512 B / P2P rate. With two mailbox
  // slots, a request waits in the backlog until the request two before it
  // has sent its last completion. Covers back-to-back and 4 KB (eight
  // completion) requests, a backlog and an idle gap.
  GpuArch arch = fermi_c2050();
  arch.p2p_max_outstanding = 2;
  build(arch);
  wire();
  struct Request {
    Time at;
    std::uint32_t len;
  };
  const std::vector<Request> requests = {
      {0, 4096},           {0, 512},        {0, 1024},
      {units::ns(700), 512}, {us(2), 4096}, {us(40), 512},
      {us(40), 4096},      {us(41), 1536}};
  for (const Request& r : requests)
    sim.at(r.at, [this, r] {
      gpu->handle_write(gpu->mailbox_addr(), timing_only_request(r.len));
    });
  sim.run();

  // Completions reach the NIC over idle links: they leave the GPU at
  // least 512 B / 1.5 GB/s apart, more than either link's serialization.
  const Time transit = fabric.path_latency(*gpu, nic) +
                       pcie::gen2_x16().serialize_time(Bytes(512)) +
                       pcie::gen2_x8().serialize_time(Bytes(512));
  std::vector<Time> expect;
  std::vector<Time> finished;  // each request's last completion
  Time prev = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t depth = 2;
    const Time accepted =
        i < depth ? requests[i].at
                  : std::max(requests[i].at, finished[i - depth]);
    for (std::uint32_t off = 0; off < requests[i].len; off += 512) {
      prev = std::max(accepted + arch.p2p_head_latency, prev) +
             units::transfer_time(Bytes(512), arch.effective_p2p_rate());
      expect.push_back(prev + transit);
    }
    finished.push_back(prev);
  }
  EXPECT_EQ(nic.arrivals, expect);
  EXPECT_EQ(gpu->p2p_queue_depth(), 0);
}

TEST_F(GpuFixture, Bar1ReadCompletesAtLatencyThenReadRate) {
  // A BAR1 read arriving at t completes at
  // max(t + bar1 read latency, prev) + len / BAR1 read rate.
  wire();
  const std::uint64_t bar_addr = gpu->bar1_map(0, 1 << 20);
  struct Read {
    Time at;
    std::uint32_t len;
  };
  const std::vector<Read> reads = {{0, 4096},       {0, 4096},
                                   {us(1), 64},     {us(2), 0},
                                   {us(400), 8192}, {us(400) + 1, 512}};
  std::vector<Time> done;
  struct Ctx {
    sim::Simulator* sim;
    std::vector<Time>* done;
  } ctx{&sim, &done};
  const pcie::ReadReply record{[](void* c, pcie::Payload) {
                                 auto* ctx = static_cast<Ctx*>(c);
                                 ctx->done->push_back(ctx->sim->now());
                               },
                               &ctx};
  for (const Read& r : reads)
    sim.at(r.at, [this, bar_addr, r, record] {
      gpu->handle_read(bar_addr, r.len, false, record);
    });
  sim.run();

  std::vector<Time> expect;
  Time prev = 0;
  for (const Read& r : reads) {
    prev = std::max(r.at + gpu->arch().bar1_read_latency, prev) +
           units::transfer_time(Bytes(r.len),
                                gpu->arch().effective_bar1_read_rate());
    expect.push_back(prev);
  }
  EXPECT_EQ(done, expect);
}

/// Race-detector findings (cell names) when a 512 B read request reaches
/// the mailbox in the same tick as the completion that frees the slot of
/// the request before it, from an event causally unrelated to that
/// completion.
std::vector<std::string> same_tick_request_findings(int max_outstanding) {
  sim::Simulator sim;
  check::Session session(sim, check::Context::Mode::kRecord);
  pcie::Fabric fabric(sim);
  Collector nic(sim);
  GpuArch arch = fermi_c2050();
  arch.p2p_max_outstanding = max_outstanding;
  Gpu gpu(sim, fabric, arch, kGpuBase);
  const int sw = fabric.add_switch(fabric.add_root(), pcie::gen2_x16(), "plx");
  fabric.attach(gpu, sw, pcie::gen2_x16());
  fabric.attach(nic, sw, pcie::gen2_x8());
  fabric.claim_range(gpu, gpu.mmio_base(), gpu.mmio_size());
  fabric.claim_range(nic, kNicBase, 1 << 20);

  auto request_at = [&](Time t) {
    sim.at(t, [&] {
      P2pReadDescriptor d{};
      d.len = 512;
      d.reply_addr = kNicBase;
      pcie::Payload p;
      p.bytes = 32;
      p.data.resize(sizeof(d));
      std::memcpy(p.data.data(), &d, sizeof(d));
      gpu.handle_write(gpu.mailbox_addr(), std::move(p));
    });
  };
  // The first request's one 512 B completion frees its slot at `freed`.
  const Time freed = arch.p2p_head_latency +
                     units::transfer_time(Bytes(512), arch.effective_p2p_rate());
  request_at(0);
  request_at(freed);
  sim.run();
  EXPECT_EQ(gpu.p2p_requests_served(), 2u);
  std::vector<std::string> cells;
  for (const check::Finding& f : session.context().findings())
    cells.push_back(f.cell);
  return cells;
}

TEST(GpuRaceCheck, SameTickRequestAndCompletionCommuteBelowTheDepth) {
  // Taking a slot and freeing one commute: no finding.
  EXPECT_EQ(same_tick_request_findings(2), std::vector<std::string>{});
}

TEST(GpuRaceCheck, SameTickRequestAtFullQueueIsFlagged) {
  // With the queue full, whether the request waits in the backlog depends
  // on which same-tick event runs first.
  const std::vector<std::string> cells = same_tick_request_findings(1);
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.front(), "p2p_queue_depth_");
}

TEST(GpuArchPresets, PaperValues) {
  EXPECT_EQ(fermi_c2050().mem_bytes, 3ull << 30);
  EXPECT_EQ(fermi_c2070().mem_bytes, 6ull << 30);
  EXPECT_FALSE(fermi_c2050().ecc_enabled);
  // Kepler K20 was measured with ECC on and still hit 1.6 GB/s.
  GpuArch k20 = kepler_k20();
  EXPECT_TRUE(k20.ecc_enabled);
  EXPECT_NEAR(k20.effective_p2p_rate().bytes_per_sec(), 1.6e9, 0.1e9);
  EXPECT_NEAR(k20.effective_bar1_read_rate().bytes_per_sec(), 1.6e9, 0.1e9);
  // Fermi BAR1 is an order of magnitude slower than Kepler's.
  EXPECT_LT(fermi_c2050().bar1_read_rate * 5.0, k20.bar1_read_rate);
}

}  // namespace
}  // namespace apn::gpu
