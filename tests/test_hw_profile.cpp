// Pins the hardware-profile registry (src/hw/profile.hpp):
//  * apenet_2013 matches today's calibration literals field by field — the
//    golden guard against silent recalibration of the paper's Cluster I.
//    (tests/test_determinism.cpp pins the timings those values produce.)
//  * Registry lookup, the unknown-name error listing every registered
//    profile, select()/active() and the ScopedProfile thread-local
//    override.
//  * Per-profile determinism: the same workload run twice under each
//    profile yields identical rolling state hashes and simulated timings.
//  * The shared bench flag parsing of --hw-profile / APN_HW_PROFILE and
//    the bench::Runner exit 2 on an unknown profile, an unknown flag, an
//    output path that cannot be created or a bad APN_BENCH_SCALE.
#include "hw/profile.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/check.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "exp/runner.hpp"

namespace {

using namespace apn;
using check::Context;

TEST(HwProfile, Apenet2013MatchesTodaysLiterals) {
  const hw::HwProfile& p = hw::profile("apenet_2013");
  const core::ApenetParams& a = p.apenet;

  // PCIe link of the card (Gen2 x8).
  EXPECT_EQ(a.pcie.gen, 2);
  EXPECT_EQ(a.pcie.lanes, 8);
  EXPECT_EQ(a.pcie.max_payload, 256u);
  EXPECT_EQ(a.pcie.tlp_overhead, 28u);
  EXPECT_EQ(a.pcie.hop_latency, units::ns(200));

  // Torus and router.
  EXPECT_DOUBLE_EQ(a.torus_link_gbps, 28.0);
  EXPECT_EQ(a.torus_link_latency, units::ns(150));
  EXPECT_EQ(a.router_latency, units::ns(120));

  // Host-buffer transmission.
  EXPECT_EQ(a.descriptor_fetch, units::us(0.35));
  EXPECT_EQ(a.host_read_request_bytes, 512u);
  EXPECT_EQ(a.host_read_window, 3840u);
  EXPECT_EQ(a.tx_packet_overhead, units::ns(300));

  // GPU_P2P_TX.
  EXPECT_EQ(a.p2p_tx_version, core::P2pTxVersion::kV3);
  EXPECT_EQ(a.p2p_request_bytes, 512u);
  EXPECT_EQ(a.p2p_request_interval, units::ns(80));
  EXPECT_EQ(a.p2p_prefetch_window, 128u * 1024u);
  EXPECT_EQ(a.p2p_descriptor_bytes, 32u);
  EXPECT_EQ(a.p2p_refill_interval_bytes, 64u * 1024u);

  // FIFOs and receive path.
  EXPECT_EQ(a.tx_fifo_bytes, 32u * 1024u);
  EXPECT_EQ(a.gpu_tx_fifo_bytes, 32u * 1024u);
  EXPECT_EQ(a.rx_event_delivery, units::us(0.25));
  EXPECT_FALSE(a.rx_hw_v2p);
  EXPECT_EQ(a.mmio_read_latency, units::ns(400));
  EXPECT_FALSE(a.flush_at_switch);

  // Nios firmware task costs.
  EXPECT_EQ(a.nios.rx_buflist_base, units::us(1.05));
  EXPECT_EQ(a.nios.rx_buflist_per_entry, units::ns(55));
  EXPECT_EQ(a.nios.rx_v2p, units::us(1.45));
  EXPECT_EQ(a.nios.rx_dma_kick, units::us(0.70));
  EXPECT_EQ(a.nios.rx_gpu_window_extra, units::ns(350));
  EXPECT_EQ(a.nios.tx_gpu_setup, units::us(1.1));
  EXPECT_EQ(a.nios.tx_gpu_v1_per_request, units::us(1.9));
  EXPECT_EQ(a.nios.tx_gpu_v2_per_packet, units::ns(350));
  EXPECT_EQ(a.nios.tx_gpu_v3_per_refill, units::ns(300));

  // GPU: Fermi C2050 as shipped on Cluster I.
  EXPECT_EQ(p.gpu.name, "Fermi C2050");
  EXPECT_EQ(p.gpu.mem_bytes, 3ull << 30);
  EXPECT_EQ(p.gpu.p2p_stream_rate, Rate(1.55e9));
  EXPECT_EQ(p.gpu.bar1_read_rate, Rate(150e6));
  EXPECT_EQ(p.gpu.p2p_head_latency, units::us(1.8));
  EXPECT_EQ(p.gpu.unmapped_read_latency, units::ns(400));
  EXPECT_FALSE(p.gpu.ecc_enabled);

  // Slot wiring: card Gen2 x8, HCA x4 (motherboard constraint), GPU x16.
  EXPECT_EQ(p.apenet_slot.gen, 2);
  EXPECT_EQ(p.apenet_slot.lanes, 8);
  EXPECT_EQ(p.ib_slot.gen, 2);
  EXPECT_EQ(p.ib_slot.lanes, 4);
  EXPECT_EQ(p.gpu_slot.gen, 2);
  EXPECT_EQ(p.gpu_slot.lanes, 16);

  // The profile is exactly the default-constructed parameter set: a
  // default ApenetParams{} (what every pre-profile test builds) must stay
  // indistinguishable from apenet_2013.
  const core::ApenetParams d{};
  EXPECT_EQ(a.torus_link_gbps, d.torus_link_gbps);
  EXPECT_EQ(a.host_read_window, d.host_read_window);
  EXPECT_EQ(a.nios.rx_v2p, d.nios.rx_v2p);
  EXPECT_EQ(a.rx_hw_v2p, d.rx_hw_v2p);
  EXPECT_EQ(a.mmio_read_latency, d.mmio_read_latency);
}

TEST(HwProfile, RegistryNamesAndLookup) {
  auto names = hw::names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "apenet_2013");
  EXPECT_EQ(names[1], "apenet_28nm");
  EXPECT_EQ(names[2], "gen3");
  for (const auto& n : names) EXPECT_EQ(hw::profile(n).name, n);
}

TEST(HwProfile, UnknownNameErrorListsRegisteredProfiles) {
  try {
    hw::profile("gen4_wishful");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gen4_wishful"), std::string::npos) << msg;
    for (const auto& n : hw::names())
      EXPECT_NE(msg.find(n), std::string::npos) << msg;
  }
}

TEST(HwProfile, ProfilesDifferWhereTheyShould) {
  const hw::HwProfile& p13 = hw::profile("apenet_2013");
  const hw::HwProfile& p28 = hw::profile("apenet_28nm");
  const hw::HwProfile& g3 = hw::profile("gen3");

  // 28 nm: hardware V2P, cheaper BUF_LIST, faster torus, K20; still Gen2.
  EXPECT_TRUE(p28.apenet.rx_hw_v2p);
  EXPECT_LT(p28.apenet.nios.rx_hw_v2p_lookup, p13.apenet.nios.rx_v2p);
  EXPECT_LT(p28.apenet.nios.rx_buflist_base, p13.apenet.nios.rx_buflist_base);
  EXPECT_GT(p28.apenet.torus_link_gbps, p13.apenet.torus_link_gbps);
  EXPECT_EQ(p28.apenet_slot.gen, 2);
  EXPECT_EQ(p28.gpu.name, "Kepler K20");

  // gen3: PCIe Gen3 slots, wider host-read window, faster torus, K40.
  EXPECT_EQ(g3.apenet.pcie.gen, 3);
  EXPECT_EQ(g3.apenet_slot.gen, 3);
  EXPECT_EQ(g3.gpu_slot.gen, 3);
  EXPECT_GT(g3.apenet.host_read_window, p28.apenet.host_read_window);
  EXPECT_GT(g3.apenet.torus_link_gbps, p28.apenet.torus_link_gbps);
  EXPECT_EQ(g3.gpu.name, "Kepler K40");
  EXPECT_GT(g3.apenet_slot.raw_rate().bytes_per_sec(),
            p28.apenet_slot.raw_rate().bytes_per_sec());
}

TEST(HwProfile, SelectActiveAndScopedOverride) {
  EXPECT_EQ(hw::active().name, "apenet_2013");  // the process default
  {
    hw::ScopedProfile sp("apenet_28nm");
    EXPECT_EQ(hw::active().name, "apenet_28nm");
    EXPECT_TRUE(hw::params().rx_hw_v2p);
    {
      hw::ScopedProfile inner("gen3");
      EXPECT_EQ(hw::active().name, "gen3");
    }
    EXPECT_EQ(hw::active().name, "apenet_28nm");
  }
  EXPECT_EQ(hw::active().name, "apenet_2013");

  hw::select("gen3");
  EXPECT_EQ(hw::active().name, "gen3");
  {
    // A thread-local override beats the process selection.
    hw::ScopedProfile sp("apenet_2013");
    EXPECT_EQ(hw::active().name, "apenet_2013");
  }
  hw::select("apenet_2013");
  EXPECT_THROW(hw::select("bogus"), std::invalid_argument);
  EXPECT_EQ(hw::active().name, "apenet_2013");  // failed select is a no-op
}

// The same two-node workload run twice under one profile must produce the
// same rolling state hash and the same simulated timing — each profile is
// a deterministic machine, not a noise source.
struct ProfileRun {
  std::uint64_t hash;
  double mbps;
  Time elapsed;
};

ProfileRun run_profile_once(const std::string& name) {
  hw::ScopedProfile sp(name);
  sim::Simulator sim;
  check::Session session(sim, Context::Mode::kRecord);
  auto c = cluster::Cluster::make_cluster_i(sim, 2, hw::params(), false);
  auto r = cluster::twonode_bandwidth(*c, 64 * 1024, 8,
                                      cluster::TwoNodeOptions{
                                          core::MemType::kGpu,
                                          core::MemType::kGpu});
  return {session.context().rolling_hash(), r.mbps, r.elapsed};
}

// Cell identity in the race detector is the cell's address, so the rolling
// hash is only comparable between runs that start from the same heap state
// — in practice, between fresh processes (how CI diffs --state-hash-out
// files). Reproduce that here by forking: both children inherit an
// identical heap, run the workload once, and report over a pipe.
ProfileRun run_profile_in_child(const std::string& name) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ProfileRun r = run_profile_once(name);
    ssize_t n = write(fds[1], &r, sizeof r);
    _exit(n == sizeof r ? 0 : 1);
  }
  close(fds[1]);
  ProfileRun r{};
  EXPECT_EQ(read(fds[0], &r, sizeof r), static_cast<ssize_t>(sizeof r));
  close(fds[0]);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return r;
}

TEST(HwProfile, StateHashDeterministicPerProfile) {
  std::vector<ProfileRun> runs;
  for (const auto& name : hw::names()) {
    ProfileRun a = run_profile_in_child(name);
    ProfileRun b = run_profile_in_child(name);
    EXPECT_EQ(a.hash, b.hash) << name;
    EXPECT_EQ(a.elapsed, b.elapsed) << name;
    EXPECT_DOUBLE_EQ(a.mbps, b.mbps) << name;
    runs.push_back(a);
  }
  // And the generations actually behave differently: G-G bandwidth grows
  // monotonically across apenet_2013 -> apenet_28nm -> gen3, and the hash
  // streams diverge.
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_LT(runs[0].mbps, runs[1].mbps);
  EXPECT_LT(runs[1].mbps, runs[2].mbps);
  EXPECT_NE(runs[0].hash, runs[1].hash);
  EXPECT_NE(runs[1].hash, runs[2].hash);
}

TEST(HwProfile, RunnerOptionsParseFlagAndEnv) {
  unsetenv("APN_HW_PROFILE");
  {
    const char* argv[] = {"prog", "--hw-profile=apenet_28nm"};
    auto o = exp::RunnerOptions::from_args(2, const_cast<char**>(argv));
    EXPECT_EQ(o.hw_profile, "apenet_28nm");
  }
  {
    const char* argv[] = {"prog"};
    auto o = exp::RunnerOptions::from_args(1, const_cast<char**>(argv));
    EXPECT_TRUE(o.hw_profile.empty());
  }
  setenv("APN_HW_PROFILE", "gen3", 1);
  {
    const char* argv[] = {"prog"};
    auto o = exp::RunnerOptions::from_args(1, const_cast<char**>(argv));
    EXPECT_EQ(o.hw_profile, "gen3");
  }
  {
    // An explicit flag beats the environment.
    const char* argv[] = {"prog", "--hw-profile=apenet_2013"};
    auto o = exp::RunnerOptions::from_args(2, const_cast<char**>(argv));
    EXPECT_EQ(o.hw_profile, "apenet_2013");
  }
  unsetenv("APN_HW_PROFILE");
}

TEST(HwProfileDeathTest, BenchRunnerRejectsUnknownProfile) {
  // bench::Runner must exit 2 and name every registered profile, so a
  // typo'd --hw-profile= fails loudly instead of silently measuring the
  // default machine.
  const char* argv[] = {"prog", "--hw-profile=no_such_machine"};
  EXPECT_EXIT(bench::Runner(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(2),
              "no_such_machine.*apenet_2013.*apenet_28nm.*gen3");
}

TEST(BenchRunnerDeathTest, UnknownFlagExitsWithUsage) {
  // A typo'd flag must not be ignored: exit 2 and list the real flags.
  const char* argv[] = {"prog", "--jsn=x"};
  EXPECT_EXIT(bench::Runner(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(2),
              "error: unknown option '--jsn=x'(.|\n)*--json=");
}

TEST(BenchRunnerDeathTest, UnwritableOutputPathExits) {
  const std::string missing = testing::TempDir() + "no_such_dir/out";
  for (const char* flag : {"--json=", "--state-hash-out="}) {
    const std::string arg = flag + missing;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_EXIT(bench::Runner(2, const_cast<char**>(argv)),
                testing::ExitedWithCode(2), "error: cannot open .*no_such_dir")
        << flag;
  }
  setenv("APN_BENCH_JSON", missing.c_str(), 1);
  const char* argv[] = {"prog"};
  EXPECT_EXIT(bench::Runner(1, const_cast<char**>(argv)),
              testing::ExitedWithCode(2), "error: cannot open .*no_such_dir");
  unsetenv("APN_BENCH_JSON");
}

TEST(BenchRunnerDeathTest, BadBenchScaleExits) {
  for (const char* v : {"abc", "0", "14x", "-3", "32"}) {
    setenv("APN_BENCH_SCALE", v, 1);
    EXPECT_EXIT((void)bench::bfs_scale(), testing::ExitedWithCode(2),
                "error: bad APN_BENCH_SCALE value")
        << v;
  }
  setenv("APN_BENCH_SCALE", "14", 1);
  EXPECT_EQ(bench::bfs_scale(), 14);
  setenv("APN_BENCH_SCALE", "", 1);  // empty counts as unset
  EXPECT_EQ(bench::bfs_scale(), 20);
  unsetenv("APN_BENCH_SCALE");
  EXPECT_EQ(bench::bfs_scale(), 20);
}

}  // namespace
