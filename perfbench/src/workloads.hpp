// The benchmark's workloads: each is a list of independent points, and
// each point builds a fresh Simulator + Cluster, runs one measurement to
// completion and tears everything down. Calls into the simulator's layers
// are wrapped in spans (probe.hpp); the layers' own counters are summed
// into Counters after every point.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "pcie/fabric.hpp"
#include "probe.hpp"

namespace perfbench {

/// Inputs the driver derives from the workload seed (run.py); the program
/// sees only these, and has no defaults for them.
struct Inputs {
  std::uint64_t rmat_seed;     ///< BFS graph
  std::uint64_t root_seed;     ///< BFS search key
  std::uint64_t lattice_seed;  ///< HSG initial spins
};

/// Simulated counters read from the layers after each point, summed over
/// a pass. All repeat exactly for identical inputs.
struct Counters {
  std::uint64_t events = 0;  ///< sim: Simulator::events_processed()
  std::uint64_t chunks = 0;  ///< pcie: BusAnalyzer records (traced only)
  std::uint64_t nios_jobs = 0;
  double nios_busy_ps = 0;  ///< sum of Nios II busy time
  double nios_span_ps = 0;  ///< sum of simulated time per card
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_drops = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t p2p_requests = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t window_switches = 0;
  std::uint64_t bar1_reads = 0;
  std::uint64_t copy_jobs = 0;
  double teps_sum = 0;      ///< BFS simulated TEPS, summed over points
  std::uint64_t bfs_points = 0;
  double drift_max = 0;     ///< HSG |dE/E|, max over points
};

struct Ctx {
  Tracer& tracer;
  Counters counters;
  std::uint64_t point_events = 0;  ///< events of the point just run
  /// The running point's bus analyzers, kept from one traced pass to the
  /// next (set by the driver; used only while tracing).
  std::deque<apn::pcie::BusAnalyzer>* analyzers = nullptr;
};

/// What one point checks: its simulated result plus the validity checks
/// that hold at every seed.
struct Outcome {
  double value = 0;    ///< simulated result, in Point::unit
  double aux = 0;      ///< second simulated value (edges, energy), or 0
  bool valid = true;   ///< BFS tree validated / HSG energy conserved
};

struct Point {
  std::string name;
  const char* unit;
  std::function<Outcome(Ctx&)> run;
};

/// The points of `workload`; throws std::invalid_argument for an unknown
/// name.
std::vector<Point> make_points(const std::string& workload, const Inputs& in);

}  // namespace perfbench
