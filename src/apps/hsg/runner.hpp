// Distributed Heisenberg-spin-glass runner (paper §V-D).
//
// The L^3 lattice is split over a pz x py process grid (Z x Y, NP = pz *
// py); rank r sits at grid position (r / py, r % py) and owns an
// (L/pz) x (L/py) x L brick, a `Slab`. py = 1, the default, is the paper's
// 1-D slab decomposition along Z; py > 1 tests the conjecture the paper
// closes §V-D with: "This advantage could increase for a multi-
// dimensional domain-decomposition, where the size of the exchanged
// messages shrinks in the strong scaling, thanks to more regularly shaped
// 3D sub-domains." A rank exchanges halos across its Z faces, plus its Y
// faces when py > 1. An axis that one rank holds (pz = 1 or py = 1) wraps
// by index inside the slab; its faces keep their buffers for the timing
// model but exchange nothing.
//
// Each over-relaxation step runs two checkerboard phases. Per phase:
//   boundary kernel -> (halo exchange || bulk kernel) -> sync.
// The halo of one phase is the updated parity of each face, fragmented
// into 128 KB PUTs (6 outgoing + 6 incoming messages per phase at L=256
// on the slab grid, matching the paper's description).
//
// Communication modes (Table III / Fig. 11):
//   kP2pOn  — GPU source and GPU destination buffers (P2P both ways)
//   kP2pRx  — staging for TX (cudaMemcpy D2H + host-source PUT), P2P RX
//   kP2pOff — staging both ways (host-to-host PUT + cudaMemcpy H2D)
//   kIb     — minimpi over InfiniBand (OpenMPI-style staged transfers)
//
// In functional mode the real spin math runs and real halo bytes travel
// through the full simulated stack (GPU memory -> card -> torus -> card ->
// GPU memory); tests verify energy conservation and site-exact agreement
// with the single-lattice reference. In timing mode (benches) payloads are
// timing-only and the math is skipped.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/hsg/lattice.hpp"
#include "cluster/cluster.hpp"

namespace apn::apps::hsg {

enum class CommMode { kP2pOff, kP2pRx, kP2pOn, kIb };

inline const char* comm_mode_name(CommMode m) {
  switch (m) {
    case CommMode::kP2pOff: return "P2P=OFF";
    case CommMode::kP2pRx: return "P2P=RX";
    case CommMode::kP2pOn: return "P2P=ON";
    case CommMode::kIb: return "OMPI/IB";
  }
  std::abort();  // unreachable: no default, so -Wswitch guards enum growth
}

struct HsgConfig {
  int L = 32;
  int steps = 2;
  /// Ranks along Y; pz = NP / py along Z. 1 is the paper's slab grid.
  int py = 1;
  CommMode mode = CommMode::kP2pOn;
  bool functional = true;  ///< real math + real halo bytes
  std::uint64_t seed = 42;
};

struct HsgMetrics {
  Time wall = 0;
  double ttot_ps = 0;      ///< wall / (steps * L^3)
  double tnet_ps = 0;      ///< accumulated comm time, same normalization
  double tbnd_net_ps = 0;  ///< boundary kernels + comm
  double energy_initial = 0;
  double energy_final = 0;
  bool functional = false;
};

class HsgRun {
 public:
  HsgRun(cluster::Cluster& cluster, HsgConfig config);
  ~HsgRun();

  /// Execute the full simulation (drives the Simulator until completion).
  HsgMetrics run();

  /// Functional-mode sub-lattice access for validation against the
  /// reference; throws std::bad_optional_access in timing mode.
  const Slab& slab(int rank) const;

  /// Halo bytes one rank sends per phase, summed over its faces.
  std::uint64_t halo_bytes_per_phase() const;

 private:
  struct HaloFace;
  struct RankState;
  sim::Coro rank_main(int rank);
  sim::Coro exchange_phase(int rank, int parity,
                           std::shared_ptr<sim::Gate> done);
  /// Functional mode: the received halos, device to sub-lattice.
  void unpack_halos(int rank, int parity);
  int neighbor(int rank, Face face) const;
  std::uint64_t face_bytes(Face face) const;
  Time kernel_time(int rank, std::uint64_t sites) const;
  Time spin_time(int rank) const;

  cluster::Cluster& cluster_;
  HsgConfig cfg_;
  int np_;
  int pz_;
  int lz_, ly_;  ///< brick extent along Z and Y
  int nfaces_;   ///< 2 (slab grid) or 4
  int nremote_;  ///< faces toward another rank; they lead each face list
  std::vector<std::unique_ptr<RankState>> ranks_;
  int finished_ = 0;
};

}  // namespace apn::apps::hsg
