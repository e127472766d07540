#include "cluster/harness.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace apn::cluster {

namespace {

/// Record one harness measurement: a span on the shared "harness" trace
/// track plus a histogram/gauge pair in the global metrics registry.
void record_measurement(const char* name, Time t0, Time t_end, double value,
                        const char* unit) {
  trace::Track::open("harness", "measurements")
      .span("harness", name, t0, t_end, {{"value", value}});
  auto& m = trace::MetricsRegistry::global();
  m.histogram(std::string("harness.") + name + "_" + unit).observe(value);
}

/// Reject a message count that would leave the measurement empty (and
/// divide a Time by zero).
void require_messages(const char* entry, const char* what, int n) {
  if (n < 1)
    throw std::invalid_argument(std::string("cluster::") + entry + ": " +
                                what + " must be at least 1, got " +
                                std::to_string(n));
}

struct Shared {
  Time t0 = 0;
  Time t_end = 0;
  std::shared_ptr<sim::Gate> ready;  // receiver registration complete
};

}  // namespace

BwResult loopback_bandwidth(Cluster& c, int node, core::MemType src_type,
                            std::uint64_t size, int count) {
  require_messages("loopback_bandwidth", "count", count);
  Node& n = c.node(node);
  const bool flush = n.card().params().flush_at_switch;
  std::uint64_t src = make_buf(n, src_type, size);
  std::uint64_t dst = make_buf(n, src_type, size);
  auto sh = std::make_shared<Shared>();

  [](Cluster* c, int node, std::uint64_t src, std::uint64_t dst,
     std::uint64_t size, int count, bool flush, core::MemType type,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(node);
    co_await rdma.register_buffer(dst, size, type);
    co_await rdma.register_buffer(src, size, type);
    sh->t0 = c->simulator().now();
    std::vector<std::shared_ptr<sim::Gate>> gates;
    gates.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      auto p = rdma.put(c->coord(node), src, size, dst, type,
                        /*carry_data=*/false);
      gates.push_back(p.tx_done);
    }
    if (flush) {
      for (auto& g : gates) co_await g->wait();
    } else {
      for (int i = 0; i < count; ++i) co_await rdma.events().pop();
    }
    sh->t_end = c->simulator().now();
  }(&c, node, src, dst, size, count, flush, src_type, sh);

  c.simulator().run();
  BwResult r;
  r.bytes = size * static_cast<std::uint64_t>(count);
  r.elapsed = sh->t_end - sh->t0;
  r.mbps = units::bandwidth_MBps(Bytes(r.bytes), r.elapsed);
  record_measurement("loopback_bw", sh->t0, sh->t_end, r.mbps, "mbps");
  return r;
}

BwResult twonode_bandwidth(Cluster& c, std::uint64_t size, int count,
                           TwoNodeOptions opt) {
  require_messages("twonode_bandwidth", "count", count);
  Node& s = c.node(0);
  Node& d = c.node(1);
  std::uint64_t src = make_buf(s, opt.src_type, size);
  std::uint64_t bounce_tx[2] = {make_buf(s, core::MemType::kHost, size),
                                make_buf(s, core::MemType::kHost, size)};
  // Destination: either the real-typed buffer, or (staged RX) a host
  // landing buffer that is copied up to the GPU per message.
  std::uint64_t dst = make_buf(
      d, opt.staged_rx ? core::MemType::kHost : opt.dst_type, size);
  std::uint64_t dst_gpu =
      opt.staged_rx ? make_buf(d, core::MemType::kGpu, size) : 0;
  auto sh = std::make_shared<Shared>();
  sh->ready = std::make_shared<sim::Gate>(c.simulator());

  // Receiver
  [](Cluster* c, std::uint64_t dst, std::uint64_t dst_gpu,
     std::uint64_t size, int count, TwoNodeOptions opt,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(1);
    co_await rdma.register_buffer(
        dst, size,
        opt.staged_rx ? core::MemType::kHost : opt.dst_type);
    sh->ready->open();
    for (int i = 0; i < count; ++i) {
      co_await rdma.events().pop();
      // Staged RX: synchronous cudaMemcpy H2D per message, as in the
      // paper's P2P=OFF benchmark.
      if (opt.staged_rx)
        co_await c->node(1).cuda().memcpy_sync(dst_gpu, dst, size);
    }
    sh->t_end = c->simulator().now();
  }(&c, dst, dst_gpu, size, count, opt, sh);

  // Sender
  [](Cluster* c, std::uint64_t src, std::uint64_t b0, std::uint64_t b1,
     std::uint64_t dst, std::uint64_t size, int count, TwoNodeOptions opt,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(0);
    core::MemType wire_type = opt.staged_tx ? core::MemType::kHost
                                            : opt.src_type;
    if (opt.src_type == core::MemType::kGpu && !opt.staged_tx)
      co_await rdma.register_buffer(src, size, core::MemType::kGpu);
    // Let the receiver finish registration first.
    co_await sh->ready->wait();
    sh->t0 = c->simulator().now();
    // Staged TX uses a *synchronous* cudaMemcpy per message, exactly like
    // the paper's P2P=OFF benchmark (its Fig. 10 shows the full ~10 us
    // D2H sync cost in the sender's per-message overhead).
    for (int i = 0; i < count; ++i) {
      std::uint64_t from = src;
      if (opt.staged_tx) {
        const std::uint64_t b = i % 2 == 0 ? b0 : b1;
        co_await c->node(0).cuda().memcpy_sync(b, src, size);
        from = b;
      }
      rdma.put(c->coord(1), from, size, dst, wire_type,
               /*carry_data=*/false);
    }
  }(&c, src, bounce_tx[0], bounce_tx[1], dst, size, count, opt, sh);

  c.simulator().run();
  BwResult r;
  r.bytes = size * static_cast<std::uint64_t>(count);
  r.elapsed = sh->t_end - sh->t0;
  r.mbps = units::bandwidth_MBps(Bytes(r.bytes), r.elapsed);
  record_measurement("twonode_bw", sh->t0, sh->t_end, r.mbps, "mbps");
  return r;
}

Time pingpong_latency(Cluster& c, std::uint64_t size, int reps,
                      TwoNodeOptions opt) {
  require_messages("pingpong_latency", "reps", reps);
  // Symmetric endpoints: each node has a recv buffer of the destination
  // type and sends from a buffer of the source type.
  std::uint64_t src0 = make_buf(c.node(0), opt.src_type, size);
  std::uint64_t src1 = make_buf(c.node(1), opt.src_type, size);
  const core::MemType rx_type =
      opt.staged_rx ? core::MemType::kHost : opt.dst_type;
  std::uint64_t dst0 = make_buf(c.node(0), rx_type, size);
  std::uint64_t dst1 = make_buf(c.node(1), rx_type, size);
  std::uint64_t gpu0 =
      opt.staged_rx ? make_buf(c.node(0), core::MemType::kGpu, size) : 0;
  std::uint64_t gpu1 =
      opt.staged_rx ? make_buf(c.node(1), core::MemType::kGpu, size) : 0;
  std::uint64_t host0 = make_buf(c.node(0), core::MemType::kHost, size);
  std::uint64_t host1 = make_buf(c.node(1), core::MemType::kHost, size);
  auto sh = std::make_shared<Shared>();
  sh->ready = std::make_shared<sim::Gate>(c.simulator());
  auto ready_count = std::make_shared<int>(0);

  auto endpoint = [](Cluster* c, int me, std::uint64_t src,
                     std::uint64_t dst, std::uint64_t gpu, std::uint64_t host,
                     std::uint64_t remote_dst, std::uint64_t size, int reps,
                     TwoNodeOptions opt, std::shared_ptr<Shared> sh,
                     std::shared_ptr<int> ready_count) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(me);
    cuda::Runtime& cuda = c->node(me).cuda();
    co_await rdma.register_buffer(
        dst, size, opt.staged_rx ? core::MemType::kHost : opt.dst_type);
    if (opt.src_type == core::MemType::kGpu && !opt.staged_tx)
      co_await rdma.register_buffer(src, size, core::MemType::kGpu);
    if (++*ready_count == 2) sh->ready->open();
    co_await sh->ready->wait();
    if (me == 0) sh->t0 = c->simulator().now();

    for (int i = 0; i < reps; ++i) {
      if (me == 0) {
        // send
        std::uint64_t from = src;
        if (opt.staged_tx) {
          co_await cuda.memcpy_sync(host, src, size);
          from = host;
        }
        rdma.put(c->coord(1), from, size, remote_dst,
                 opt.staged_tx ? core::MemType::kHost : opt.src_type, false);
        // wait reply
        co_await rdma.events().pop();
        if (opt.staged_rx)
          co_await cuda.memcpy_sync(gpu, dst, size);
      } else {
        co_await rdma.events().pop();
        if (opt.staged_rx)
          co_await cuda.memcpy_sync(gpu, dst, size);
        std::uint64_t from = src;
        if (opt.staged_tx) {
          co_await cuda.memcpy_sync(host, src, size);
          from = host;
        }
        rdma.put(c->coord(0), from, size, remote_dst,
                 opt.staged_tx ? core::MemType::kHost : opt.src_type, false);
      }
    }
    if (me == 0) sh->t_end = c->simulator().now();
  };

  endpoint(&c, 0, src0, dst0, gpu0, host0, dst1, size, reps, opt, sh,
           ready_count);
  endpoint(&c, 1, src1, dst1, gpu1, host1, dst0, size, reps, opt, sh,
           ready_count);
  c.simulator().run();
  const Time half_rtt = (sh->t_end - sh->t0) / (2 * reps);
  record_measurement("pingpong", sh->t0, sh->t_end,
                     static_cast<double>(half_rtt) / 1e6, "us");
  return half_rtt;
}

Time host_overhead(Cluster& c, std::uint64_t size, int count,
                   TwoNodeOptions opt) {
  require_messages("host_overhead", "count", count);
  std::uint64_t src = make_buf(c.node(0), opt.src_type, size);
  std::uint64_t host = make_buf(c.node(0), core::MemType::kHost, size);
  std::uint64_t dst = make_buf(
      c.node(1), opt.staged_rx ? core::MemType::kHost : opt.dst_type, size);
  auto sh = std::make_shared<Shared>();
  sh->ready = std::make_shared<sim::Gate>(c.simulator());

  // Receiver just registers and drains.
  [](Cluster* c, std::uint64_t dst, std::uint64_t size, int count,
     TwoNodeOptions opt, std::shared_ptr<Shared> sh) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(1);
    co_await rdma.register_buffer(
        dst, size, opt.staged_rx ? core::MemType::kHost : opt.dst_type);
    sh->ready->open();
    for (int i = 0; i < count; ++i) co_await rdma.events().pop();
  }(&c, dst, size, count, opt, sh);

  [](Cluster* c, std::uint64_t src, std::uint64_t host, std::uint64_t dst,
     std::uint64_t size, int count, TwoNodeOptions opt,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    core::RdmaDevice& rdma = c->rdma(0);
    cuda::Runtime& cuda = c->node(0).cuda();
    if (opt.src_type == core::MemType::kGpu && !opt.staged_tx)
      co_await rdma.register_buffer(src, size, core::MemType::kGpu);
    co_await sh->ready->wait();
    sim::CreditPool credits(c->simulator(), kHostOverheadWindow);
    sh->t0 = c->simulator().now();
    for (int i = 0; i < count; ++i) {
      co_await credits.acquire(1);
      std::uint64_t from = src;
      if (opt.staged_tx) {
        co_await cuda.memcpy_sync(host, src, size);
        from = host;
      }
      auto p = rdma.put(c->coord(1), from, size, dst,
                        opt.staged_tx ? core::MemType::kHost : opt.src_type,
                        false);
      // Free a credit when the message left the card.
      [](std::shared_ptr<sim::Gate> g, sim::CreditPool* s) -> sim::Coro {
        co_await g->wait();
        s->release(1);
      }(p.tx_done, &credits);
    }
    sh->t_end = c->simulator().now();
    // Drain remaining credits so `credits` outlives all waiters.
    for (int i = 0; i < kHostOverheadWindow; ++i) co_await credits.acquire(1);
  }(&c, src, host, dst, size, count, opt, sh);

  c.simulator().run();
  const Time per_msg = (sh->t_end - sh->t0) / count;
  record_measurement("host_overhead", sh->t0, sh->t_end,
                     static_cast<double>(per_msg) / 1e6, "us");
  return per_msg;
}

// ---------------------------------------------------------------------------
// minimpi / IB reference measurements
// ---------------------------------------------------------------------------

namespace {
BwResult mpi_bandwidth(Cluster& c, std::uint64_t size, int count,
                       bool device) {
  std::uint64_t src = make_buf(
      c.node(0), device ? core::MemType::kGpu : core::MemType::kHost, size);
  std::uint64_t dst = make_buf(
      c.node(1), device ? core::MemType::kGpu : core::MemType::kHost, size);
  auto sh = std::make_shared<Shared>();

  [](Cluster* c, std::uint64_t dst, std::uint64_t size, int count,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    mpi::Rank& r = c->mpi_rank(1);
    std::vector<mpi::Signal> sigs;
    sigs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      sigs.push_back(r.recv(0, dst, size, 1));
    for (auto& s : sigs) co_await s;
    sh->t_end = c->simulator().now();
  }(&c, dst, size, count, sh);

  [](Cluster* c, std::uint64_t src, std::uint64_t size, int count,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    mpi::Rank& r = c->mpi_rank(0);
    co_await sim::delay(c->simulator(), units::us(30));
    sh->t0 = c->simulator().now();
    for (int i = 0; i < count; ++i) {
      co_await r.send(1, src, size, 1);
    }
  }(&c, src, size, count, sh);

  c.simulator().run();
  BwResult r;
  r.bytes = size * static_cast<std::uint64_t>(count);
  r.elapsed = sh->t_end - sh->t0;
  r.mbps = units::bandwidth_MBps(Bytes(r.bytes), r.elapsed);
  return r;
}

Time mpi_latency(Cluster& c, std::uint64_t size, int reps, bool device) {
  std::uint64_t b0 = make_buf(
      c.node(0), device ? core::MemType::kGpu : core::MemType::kHost, size);
  std::uint64_t b1 = make_buf(
      c.node(1), device ? core::MemType::kGpu : core::MemType::kHost, size);
  auto sh = std::make_shared<Shared>();

  [](Cluster* c, std::uint64_t b, std::uint64_t size, int reps,
     std::shared_ptr<Shared> sh) -> sim::Coro {
    mpi::Rank& r = c->mpi_rank(0);
    co_await sim::delay(c->simulator(), units::us(30));
    sh->t0 = c->simulator().now();
    for (int i = 0; i < reps; ++i) {
      co_await r.send(1, b, size, 5);
      co_await r.recv(1, b, size, 6);
    }
    sh->t_end = c->simulator().now();
  }(&c, b0, size, reps, sh);

  [](Cluster* c, std::uint64_t b, std::uint64_t size, int reps) -> sim::Coro {
    mpi::Rank& r = c->mpi_rank(1);
    for (int i = 0; i < reps; ++i) {
      co_await r.recv(0, b, size, 5);
      co_await r.send(0, b, size, 6);
    }
  }(&c, b1, size, reps);

  c.simulator().run();
  return (sh->t_end - sh->t0) / (2 * reps);
}
}  // namespace

BwResult ib_gg_bandwidth(Cluster& c, std::uint64_t size, int count) {
  require_messages("ib_gg_bandwidth", "count", count);
  return mpi_bandwidth(c, size, count, true);
}
BwResult ib_hh_bandwidth(Cluster& c, std::uint64_t size, int count) {
  require_messages("ib_hh_bandwidth", "count", count);
  return mpi_bandwidth(c, size, count, false);
}
Time ib_gg_latency(Cluster& c, std::uint64_t size, int reps) {
  require_messages("ib_gg_latency", "reps", reps);
  return mpi_latency(c, size, reps, true);
}
Time ib_hh_latency(Cluster& c, std::uint64_t size, int reps) {
  require_messages("ib_hh_latency", "reps", reps);
  return mpi_latency(c, size, reps, false);
}

}  // namespace apn::cluster
