// Watching the GPUDirect peer-to-peer protocol on the (simulated) PCIe bus
// — the methodology behind the paper's Fig. 3. Attaches interposers to the
// APEnet+ and GPU slots, transmits one GPU buffer, and prints the raw
// transaction trace.
//
//   $ ./examples/bus_analyzer
//   $ ./examples/bus_analyzer --trace-out=fig3.json   # Perfetto timeline
//   $ ./examples/bus_analyzer --check                 # race detector on
//   $ ./examples/bus_analyzer --state-hash-out=a.hash # per-event hashes
//
// --check arms the same-tick race detector (same as APN_CHECK=1);
// --coro-check arms the coroutine frame-lifetime oracle (same as
// APN_CORO_CHECK=1), which reports — and fails on — any coroutine frame
// still suspended at exit; --state-hash-out= additionally writes one
// rolling-state-hash line per event, so diffing the files of two runs
// pinpoints the first divergent event (see docs/CORRECTNESS.md).
//
// With --trace-out (or APN_TRACE=1) the run also produces a Chrome
// trace-event JSON: load it in https://ui.perfetto.dev to see the protocol
// phases as distinct spans — the card's TX setup ("tx_setup"), the GPU's
// head latency ("p2p_head") and response streaming ("p2p_stream"), and the
// raw bus transactions mirrored from both analyzer slots.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "cluster/cluster.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

using namespace apn;

int main(int argc, char** argv) {
  std::string trace_path;
  bool race_check = false;
  bool coro_check = false;
  std::string hash_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--trace-out") == 0) {
      trace_path = "bus_analyzer_trace.json";
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      trace_path = a + 12;
      if (trace_path.empty()) trace_path = "bus_analyzer_trace.json";
    } else if (std::strcmp(a, "--check") == 0) {
      race_check = true;
    } else if (std::strcmp(a, "--coro-check") == 0) {
      coro_check = true;
    } else if (std::strncmp(a, "--state-hash-out=", 17) == 0 &&
               a[17] != '\0') {
      hash_path = a + 17;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out[=path]] [--check] [--coro-check] "
                   "[--state-hash-out=path]\n",
                   argv[0]);
      return 2;
    }
  }
  try {
    check::apply_flags(race_check, coro_check, hash_path);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // The sink must be live before the cluster is built: components open
  // their trace tracks at construction time.
  trace::TraceSink local_sink;
  if (!trace_path.empty()) trace::set_sink(&local_sink);

  sim::Simulator sim;
  core::ApenetParams params;
  params.flush_at_switch = true;
  params.p2p_tx_version = core::P2pTxVersion::kV2;
  params.p2p_prefetch_window = 32 * 1024;
  auto cluster = cluster::Cluster::make_cluster_i(sim, 1, params, false);
  cluster::Node& node = cluster->node(0);

  pcie::BusAnalyzer card_slot, gpu_slot;
  node.fabric().attach_analyzer(node.card_pcie_node(), card_slot);
  node.fabric().attach_analyzer(node.gpu_pcie_node(0), gpu_slot);
  card_slot.bind_trace(
      trace::Track::open(node.fabric().name(), "analyzer.apenet_slot"));
  gpu_slot.bind_trace(
      trace::Track::open(node.fabric().name(), "analyzer.gpu_slot"));

  const std::uint64_t kMsg = 64 * 1024;
  [](cluster::Cluster* c, std::uint64_t n) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(0);
    cuda::DevPtr src = c->node(0).cuda().malloc_device(0, n);
    co_await rdma.register_buffer(src, n, core::MemType::kGpu);
    auto put = rdma.put(c->coord(0), src, n, 0x8000, core::MemType::kGpu,
                        false);
    co_await put.tx_done->wait();
  }(cluster.get(), kMsg);
  sim.run();

  std::printf("GPU-slot trace (first 10 transactions):\n");
  std::printf("%12s %-6s %6s %5s\n", "time (us)", "kind", "bytes", "dir");
  int shown = 0;
  for (const auto& ev : gpu_slot.events()) {
    if (shown++ >= 10) break;
    std::printf("%12.3f %-6s %6u %5s\n", units::to_us(ev.time),
                pcie::bus_kind_name(ev.kind), ev.bytes,
                ev.downstream ? "down" : "up");
  }
  std::printf("  ... (%zu transactions total: 32 B read-request descriptors "
              "into the P2P mailbox)\n",
              gpu_slot.events().size());

  std::printf("\nAPEnet+-slot trace (first 10 transactions):\n");
  std::printf("%12s %-6s %6s %5s\n", "time (us)", "kind", "bytes", "dir");
  shown = 0;
  std::uint64_t data = 0;
  Time first = -1, last = 0;
  for (const auto& ev : card_slot.events()) {
    if (ev.downstream) {
      if (first < 0) first = ev.time;
      last = ev.time;
      data += ev.bytes;
    }
    if (shown++ < 10)
      std::printf("%12.3f %-6s %6u %5s\n", units::to_us(ev.time),
                  pcie::bus_kind_name(ev.kind), ev.bytes,
                  ev.downstream ? "down" : "up");
  }
  std::printf("  ... (%zu transactions total)\n", card_slot.events().size());
  std::printf(
      "\n%llu bytes of GPU data streamed into the card's landing zone in "
      "%.1f us -> %.0f MB/s P2P read bandwidth (Fermi ceiling ~1.5 GB/s).\n",
      static_cast<unsigned long long>(data), units::to_us(last - first),
      units::bandwidth_MBps(Bytes(data), last - first));

  if (!trace_path.empty()) {
    if (local_sink.write_chrome_json(trace_path))
      std::printf("\nwrote %zu trace events to %s "
                  "(load in https://ui.perfetto.dev)\n",
                  local_sink.size(), trace_path.c_str());
    else
      std::fprintf(stderr, "\nfailed to write %s\n", trace_path.c_str());
    std::printf("\nmetrics:\n%s",
                trace::MetricsRegistry::global().text().c_str());
    trace::set_sink(nullptr);
  }
  return 0;
}
