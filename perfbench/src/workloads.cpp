#include "workloads.hpp"

#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/bfs/bfs.hpp"
#include "apps/hsg/runner.hpp"
#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "common/table.hpp"
#include "hw/profile.hpp"
#include "pcie/fabric.hpp"
#include "trace/metrics.hpp"

namespace perfbench {
namespace {

using apn::core::MemType;
using ClusterPtr = std::unique_ptr<apn::cluster::Cluster>;

// Reduced problem sizes: R-MAT scale 15 keeps graph work dominant in
// bfs_graph500 at ~0.1 s a point; L = 64 divides by every NP of hsg_halo.
constexpr int kBfsScale = 15;
constexpr int kHsgSide = 64;

/// Repetition count for a bandwidth point, as the paper benches pick it.
int reps_for(std::uint64_t size, std::uint64_t target_bytes) {
  const std::uint64_t n = target_bytes / size;
  return n < 4 ? 4 : n > 512 ? 512 : static_cast<int>(n);
}

/// Attach a bus analyzer above every card and GPU slot (traced runs only:
/// the analyzers store one record per chunk); returns how many. The
/// analyzers come from `pool`, cleared: a point builds the same cluster
/// and records the same chunks every pass, so from its second traced pass
/// on the record vectors already have their capacity and do not allocate
/// inside the timed calls.
std::size_t attach_analyzers(apn::cluster::Cluster& c,
                             std::deque<apn::pcie::BusAnalyzer>& pool) {
  std::size_t used = 0;
  const auto next = [&]() -> apn::pcie::BusAnalyzer& {
    if (used == pool.size()) pool.emplace_back();
    apn::pcie::BusAnalyzer& a = pool[used++];
    a.clear();
    return a;
  };
  for (int i = 0; i < c.size(); ++i) {
    apn::cluster::Node& n = c.node(i);
    if (n.has_apenet()) n.fabric().attach_analyzer(n.card_pcie_node(), next());
    for (int g = 0; g < n.gpu_count(); ++g)
      n.fabric().attach_analyzer(n.gpu_pcie_node(g), next());
  }
  return used;
}

void collect(apn::cluster::Cluster& c, const apn::sim::Simulator& sim,
             apn::trace::MetricsRegistry& m, std::size_t analyzers,
             Ctx& ctx) {
  Counters& k = ctx.counters;
  ctx.point_events = sim.events_processed();
  k.events += sim.events_processed();
  for (std::size_t i = 0; i < analyzers; ++i)
    k.chunks += (*ctx.analyzers)[i].events().size();
  for (int i = 0; i < c.size(); ++i) {
    apn::cluster::Node& n = c.node(i);
    if (n.has_apenet()) {
      apn::sim::Resource& nios = n.card().nios();
      k.nios_jobs += nios.jobs_completed();
      k.nios_busy_ps += static_cast<double>(nios.busy_time());
      k.nios_span_ps += static_cast<double>(sim.now());
      k.reg_misses += n.rdma().registration_cache_misses();
    }
    for (int g = 0; g < n.gpu_count(); ++g) {
      k.copy_jobs += n.gpu(g).copy_engine_d2h().jobs_completed() +
                     n.gpu(g).copy_engine_h2d().jobs_completed();
    }
  }
  k.tx_packets += m.counter("card.tx.packets").value();
  k.rx_packets += m.counter("card.rx.packets").value();
  k.rx_drops += m.counter("card.rx.drops").value();
  k.p2p_requests += m.counter("gpu.p2p.requests").value();
  k.p2p_bytes += m.counter("gpu.p2p.bytes").value();
  k.window_switches += m.counter("gpu.window_switches").value();
  k.bar1_reads += m.counter("gpu.bar1.reads").value();
}

/// One point's frame: a per-point metrics registry (installed before the
/// cluster so its components bind their counters to it), a fresh
/// simulator, cluster assembly under a span, the measurement, then the
/// layer counters.
template <typename Make, typename Drive>
Outcome on_cluster(Ctx& ctx, Make make, Drive drive) {
  apn::trace::MetricsScope metrics;
  apn::sim::Simulator sim;
  ClusterPtr c;
  {
    Scope s(ctx.tracer, "cluster.assemble");
    c = make(sim);
  }
  const std::size_t analyzers =
      ctx.tracer.on ? attach_analyzers(*c, *ctx.analyzers) : 0;
  Outcome out = drive(*c);
  collect(*c, sim, metrics.registry(), analyzers, ctx);
  return out;
}

// ---- p2p_stream -----------------------------------------------------------

/// Single-node loop-back / memory-read bandwidth (Table I, Figs. 4-5). A
/// GPU architecture builds the one-GPU node the Table I GPU rows use.
Outcome loopback(Ctx& ctx, const apn::gpu::GpuArch* arch,
                 apn::core::ApenetParams p, MemType type, std::uint64_t size,
                 int count) {
  return on_cluster(
      ctx,
      [&](apn::sim::Simulator& sim) -> ClusterPtr {
        if (arch == nullptr)
          return apn::cluster::Cluster::make_cluster_i(sim, 1, p, false);
        apn::cluster::NodeConfig cfg;
        cfg.gpus = {*arch};
        cfg.has_apenet = true;
        cfg.has_ib = false;
        return std::make_unique<apn::cluster::Cluster>(
            sim, apn::core::TorusShape{1, 1, 1}, cfg, p);
      },
      [&](apn::cluster::Cluster& c) {
        Scope s(ctx.tracer, "cluster.harness");
        return Outcome{
            apn::cluster::loopback_bandwidth(c, 0, type, size, count).mbps};
      });
}

/// Two-node uni-directional bandwidth (Fig. 6 configuration).
Outcome twonode(Ctx& ctx, MemType src, MemType dst, std::uint64_t size) {
  return on_cluster(
      ctx,
      [](apn::sim::Simulator& sim) {
        return apn::cluster::Cluster::make_cluster_i(sim, 2, apn::hw::params(),
                                                     false);
      },
      [&](apn::cluster::Cluster& c) {
        Scope s(ctx.tracer, "cluster.harness");
        apn::cluster::TwoNodeOptions opt;
        opt.src_type = src;
        opt.dst_type = dst;
        return Outcome{apn::cluster::twonode_bandwidth(
                           c, size, reps_for(size, 12ull << 20), opt)
                           .mbps};
      });
}

std::vector<Point> p2p_stream() {
  std::vector<Point> pts;
  const auto table1 = [&](const char* name, bool gpu, bool flush) {
    pts.push_back(
        {std::string("table1/") + name, "MB/s", [gpu, flush](Ctx& ctx) {
           apn::core::ApenetParams p = apn::hw::params();
           p.flush_at_switch = flush;
           const apn::gpu::GpuArch fermi = apn::gpu::fermi_c2050();
           return loopback(ctx, gpu ? &fermi : nullptr, p,
                           gpu ? MemType::kGpu : MemType::kHost, 1 << 20, 32);
         }});
  };
  table1("host_read", false, true);
  table1("fermi_p2p_read", true, true);
  table1("fermi_gg_loopback", true, false);
  table1("hh_loopback", false, false);

  struct TxConfig {
    const char* label;
    apn::core::P2pTxVersion ver;
    std::uint32_t window;
  };
  const TxConfig tx[] = {{"v1-w4K", apn::core::P2pTxVersion::kV1, 4096},
                         {"v2-w32K", apn::core::P2pTxVersion::kV2, 32 * 1024},
                         {"v3-w128K", apn::core::P2pTxVersion::kV3,
                          128 * 1024}};
  for (const TxConfig& t : tx) {
    for (std::uint64_t size : {64ull << 10, 1ull << 20, 4ull << 20}) {
      pts.push_back({"fig5/" + std::string(t.label) + "/" +
                         apn::size_label(size),
                     "MB/s", [t, size](Ctx& ctx) {
                       apn::core::ApenetParams p = apn::hw::params();
                       p.p2p_tx_version = t.ver;
                       p.p2p_prefetch_window = t.window;
                       return loopback(ctx, nullptr, p, MemType::kGpu, size,
                                       reps_for(size, 16ull << 20));
                     }});
    }
  }

  for (MemType type : {MemType::kHost, MemType::kGpu}) {
    const char* combo = type == MemType::kHost ? "H-H" : "G-G";
    for (std::uint64_t size : {64ull << 10, 1ull << 20, 4ull << 20}) {
      pts.push_back({"fig6/" + std::string(combo) + "/" +
                         apn::size_label(size),
                     "MB/s", [type, size](Ctx& ctx) {
                       return twonode(ctx, type, type, size);
                     }});
    }
  }
  return pts;
}

// ---- rdma_pingpong --------------------------------------------------------

std::vector<Point> rdma_pingpong() {
  struct Combo {
    const char* label;
    MemType src, dst;
  };
  const Combo combos[] = {{"H-H", MemType::kHost, MemType::kHost},
                          {"H-G", MemType::kHost, MemType::kGpu},
                          {"G-H", MemType::kGpu, MemType::kHost},
                          {"G-G", MemType::kGpu, MemType::kGpu}};
  std::vector<Point> pts;
  for (std::uint64_t size = 32; size <= 4096; size *= 2) {
    for (const Combo& cb : combos) {
      pts.push_back(
          {"fig8/" + std::string(cb.label) + "/" + apn::size_label(size), "us",
           [cb, size](Ctx& ctx) {
             return on_cluster(
                 ctx,
                 [](apn::sim::Simulator& sim) {
                   return apn::cluster::Cluster::make_cluster_i(
                       sim, 2, apn::hw::params(), false);
                 },
                 [&](apn::cluster::Cluster& c) {
                   Scope s(ctx.tracer, "cluster.harness");
                   apn::cluster::TwoNodeOptions opt;
                   opt.src_type = cb.src;
                   opt.dst_type = cb.dst;
                   return Outcome{apn::units::to_us(
                       apn::cluster::pingpong_latency(c, size, 100, opt))};
                 });
           }});
    }
    pts.push_back(
        {"fig9/IB-G-G/" + apn::size_label(size), "us", [size](Ctx& ctx) {
           return on_cluster(
               ctx,
               [](apn::sim::Simulator& sim) {
                 return apn::cluster::Cluster::make_cluster_ii(sim, 2);
               },
               [&](apn::cluster::Cluster& c) {
                 Scope s(ctx.tracer, "cluster.harness");
                 return Outcome{apn::units::to_us(
                     apn::cluster::ib_gg_latency(c, size, 60))};
               });
         }});
  }
  return pts;
}

// ---- bfs_graph500 ---------------------------------------------------------

/// A parent tree consistent with BFS `levels` (each reached vertex picks
/// its first neighbor one level up), the input of the validator probe.
std::vector<std::int64_t> tree_from_levels(
    const apn::apps::bfs::Csr& g, apn::apps::bfs::Vertex root,
    const std::vector<std::int64_t>& levels) {
  std::vector<std::int64_t> parents(levels.size(),
                                    apn::apps::bfs::kUnreached);
  for (std::size_t v = 0; v < levels.size(); ++v) {
    if (levels[v] <= 0) continue;
    for (apn::apps::bfs::Vertex u :
         g.neighbors(static_cast<apn::apps::bfs::Vertex>(v))) {
      if (levels[u] == levels[v] - 1) {
        parents[v] = u;
        break;
      }
    }
  }
  parents[root] = root;
  return parents;
}

/// Traced-run-only direct calls into apps/bfs on the point's own inputs.
bool bfs_probes(Ctx& ctx, const apn::apps::bfs::BfsRun& run, const Inputs& in) {
  namespace bfs = apn::apps::bfs;
  Scope all(ctx.tracer, "probes", true);
  bfs::EdgeList el;
  {
    Scope s(ctx.tracer, "bfs.rmat", true);
    el = bfs::rmat(kBfsScale, 16, in.rmat_seed);
  }
  {
    Scope s(ctx.tracer, "bfs.csr", true);
    bfs::Csr g(el);
  }
  std::vector<std::int64_t> levels;
  {
    Scope s(ctx.tracer, "bfs.levels", true);
    levels = bfs::bfs_levels(run.graph(), run.root());
  }
  const std::vector<std::int64_t> parents =
      tree_from_levels(run.graph(), run.root(), levels);
  Scope s(ctx.tracer, "bfs.validate", true);
  return bfs::validate_parents(run.graph(), run.root(), parents);
}

std::vector<Point> bfs_graph500(const Inputs& in) {
  namespace bfs = apn::apps::bfs;
  std::vector<Point> pts;
  for (int np : {1, 2, 4, 8}) {
    for (bfs::BfsNet net : {bfs::BfsNet::kApenet, bfs::BfsNet::kIb}) {
      const char* label = net == bfs::BfsNet::kIb ? "ib" : "apenet";
      pts.push_back(
          {apn::strf("table4/%s/np%d", label, np), "TEPS",
           [np, net, in](Ctx& ctx) {
             return on_cluster(
                 ctx,
                 [&](apn::sim::Simulator& sim) {
                   // The paper's IB reference for the apps is OpenMPI-era.
                   return net == bfs::BfsNet::kIb
                              ? apn::cluster::Cluster::make_cluster_ii(
                                    sim, np, true,
                                    apn::mpi::openmpi2012_params())
                              : apn::cluster::Cluster::make_cluster_i(
                                    sim, np, apn::hw::params(), false);
                 },
                 [&](apn::cluster::Cluster& c) {
                   bfs::BfsConfig cfg;
                   cfg.scale = kBfsScale;
                   cfg.edge_factor = 16;
                   cfg.seed = in.rmat_seed;
                   cfg.root_seed = in.root_seed;
                   cfg.net = net;
                   std::optional<bfs::BfsRun> run;
                   {
                     Scope s(ctx.tracer, "bfs.build");
                     run.emplace(c, cfg);
                   }
                   bfs::BfsMetrics m;
                   {
                     Scope s(ctx.tracer, "bfs.run");
                     m = run->run();
                   }
                   ctx.counters.teps_sum += m.teps;
                   ++ctx.counters.bfs_points;
                   Outcome o{m.teps, static_cast<double>(m.edges_traversed),
                             m.validated};
                   if (ctx.tracer.on && !bfs_probes(ctx, *run, in))
                     o.valid = false;
                   return o;
                 });
           }});
    }
  }
  return pts;
}

// ---- hsg_halo -------------------------------------------------------------

/// Traced-run-only direct calls into apps/hsg on a slab identical to one
/// rank's: a full interior update, and the pack/unpack of one phase's
/// halos.
void hsg_probes(Ctx& ctx, int np, const Inputs& in) {
  namespace hsg = apn::apps::hsg;
  Scope all(ctx.tracer, "probes", true);
  const int local_z = kHsgSide / np;
  hsg::Slab slab(kHsgSide, local_z, 0);
  slab.randomize(in.lattice_seed);
  {
    Scope s(ctx.tracer, "hsg.update", true);
    slab.update_interior(0);
    slab.update_interior(1);
  }
  std::vector<std::uint8_t> buf;
  Scope s(ctx.tracer, "hsg.pack", true);
  for (int parity = 0; parity < 2; ++parity) {
    slab.pack_parity_plane(1, parity, buf);
    slab.unpack_parity_plane(local_z + 1, parity, buf);
    slab.pack_parity_plane(local_z, parity, buf);
    slab.unpack_parity_plane(0, parity, buf);
  }
}

std::vector<Point> hsg_halo(const Inputs& in) {
  namespace hsg = apn::apps::hsg;
  struct Mode {
    const char* label;
    hsg::CommMode mode;
  };
  const Mode modes[] = {{"p2p_on", hsg::CommMode::kP2pOn},
                        {"p2p_rx", hsg::CommMode::kP2pRx},
                        {"p2p_off", hsg::CommMode::kP2pOff},
                        {"ompi_ib", hsg::CommMode::kIb}};
  std::vector<Point> pts;
  for (int np : {2, 4, 8}) {
    for (const Mode& md : modes) {
      pts.push_back(
          {apn::strf("hsg/%s/np%d", md.label, np), "ps/spin",
           [np, md, in](Ctx& ctx) {
             return on_cluster(
                 ctx,
                 [&](apn::sim::Simulator& sim) -> ClusterPtr {
                   if (md.mode == hsg::CommMode::kIb)
                     return apn::cluster::Cluster::make_cluster_ii(
                         sim, np, true, apn::mpi::openmpi2012_params());
                   // The HSG benches' card settings (Tables II-III).
                   apn::core::ApenetParams p = apn::hw::params();
                   p.p2p_tx_version = apn::core::P2pTxVersion::kV2;
                   p.p2p_prefetch_window = 32 * 1024;
                   return apn::cluster::Cluster::make_cluster_i(sim, np, p,
                                                                false);
                 },
                 [&](apn::cluster::Cluster& c) {
                   hsg::HsgConfig cfg;
                   cfg.L = kHsgSide;
                   cfg.steps = 2;
                   cfg.mode = md.mode;
                   cfg.functional = true;
                   cfg.seed = in.lattice_seed;
                   hsg::HsgRun run(c, cfg);
                   hsg::HsgMetrics m;
                   {
                     Scope s(ctx.tracer, "hsg.run");
                     m = run.run();
                   }
                   const double de =
                       std::abs(m.energy_final - m.energy_initial);
                   const double e0 = std::abs(m.energy_initial);
                   ctx.counters.drift_max =
                       std::max(ctx.counters.drift_max, e0 > 0 ? de / e0 : de);
                   if (ctx.tracer.on) hsg_probes(ctx, np, in);
                   // The test suite's conservation tolerance.
                   return Outcome{m.ttot_ps, m.energy_final,
                                  de <= e0 * 1e-4 + 1e-3};
                 });
           }});
    }
  }
  return pts;
}

}  // namespace

std::vector<Point> make_points(const std::string& workload, const Inputs& in) {
  if (workload == "p2p_stream") return p2p_stream();
  if (workload == "rdma_pingpong") return rdma_pingpong();
  if (workload == "bfs_graph500") return bfs_graph500(in);
  if (workload == "hsg_halo") return hsg_halo(in);
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace perfbench
