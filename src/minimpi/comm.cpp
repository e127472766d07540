#include "minimpi/comm.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "sim/resource.hpp"

namespace apn::mpi {

void World::add_rank(Rank& r) {
  ranks_.push_back(&r);
  switch_.connect(*r.hca_);
}

Rank::Rank(World& world, ib::Hca& hca, pcie::HostMemory& hostmem,
           cuda::Runtime* cuda_runtime)
    : world_(&world),
      hca_(&hca),
      hostmem_(&hostmem),
      cuda_(cuda_runtime),
      sim_(&world.simulator()) {
  copy_serializer_ = std::make_unique<sim::Resource>(*sim_);
  if (cuda_ != nullptr && cuda_->device_count() > 0)
    stream_ = std::make_unique<cuda::Stream>(*cuda_, 0);
  world.add_rank(*this);
  progress_loop();
}

bool Rank::is_gpu_ptr(std::uint64_t addr) const {
  return cuda_ != nullptr && cuda_->pointer_info(addr).is_device;
}

Time Rank::staged_copy_cost(std::uint64_t dst, std::uint64_t src,
                            std::uint64_t n) const {
  cuda::MemcpyKind kind = cuda_->classify(dst, src);
  cuda::PointerInfo di = cuda_->pointer_info(dst);
  cuda::PointerInfo si = cuda_->pointer_info(src);
  int dev = di.is_device ? di.device : si.device;
  Time overhead = kind == cuda::MemcpyKind::kDeviceToHost
                      ? cuda_->params().d2h_sync_overhead
                      : cuda_->params().h2d_sync_overhead;
  return world_->params().gpu_copy_extra + overhead +
         cuda_->transfer_time(kind, dev, Bytes(n));
}

sim::Coro Rank::staged_copy(std::uint64_t dst, std::uint64_t src,
                            std::uint64_t n,
                            std::shared_ptr<sim::Gate> done) {
  std::uint64_t frag = world_->params().staged_fragment_bytes;
  if (frag == 0) frag = n;
  for (std::uint64_t off = 0; off < n; off += frag) {
    const std::uint64_t len = std::min(frag, n - off);
    co_await copy_serializer_->use(staged_copy_cost(dst + off, src + off, len));
    cuda_->move_bytes(dst + off, src + off, len);
  }
  done->open();
}

void Rank::send_ctrl(int dst, const CtrlHeader& hdr,
                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> buf(sizeof(CtrlHeader) + payload.size());
  std::memcpy(buf.data(), &hdr, sizeof(CtrlHeader));
  if (!payload.empty())
    std::memcpy(buf.data() + sizeof(CtrlHeader), payload.data(),
                payload.size());
  hca_->post_send_inline(dst, std::move(buf), 0);
}

Signal Rank::send(int dst, std::uint64_t addr, std::uint64_t n, int tag) {
  Signal done(*sim_);
  do_send(dst, addr, n, tag, done);
  return done;
}

sim::Coro Rank::do_send(int dst, std::uint64_t addr, std::uint64_t n,
                        int tag, Signal done) {
  const MpiParams& p = world_->params();
  co_await sim::delay(*sim_, p.call_overhead);
  const bool gpu_src = is_gpu_ptr(addr);

  if (n <= p.eager_threshold) {
    // ---- eager path -----------------------------------------------------
    std::vector<std::uint8_t> payload(n);
    if (gpu_src) {
      // Staged: synchronous cudaMemcpy D2H into the vbuf, serialized with
      // every other staged copy this rank performs.
      const std::uint64_t vbuf = hostmem_->alloc(n);
      auto g = std::make_shared<sim::Gate>(*sim_);
      staged_copy(vbuf, addr, n, g);
      co_await g->wait();
      std::ranges::copy(hostmem_->bytes(vbuf, n), payload.begin());
      hostmem_->free(vbuf);
    } else {
      // Host copy into the vbuf.
      co_await sim::delay(*sim_,
                          units::transfer_time(Bytes(n), p.eager_copy_rate));
      std::ranges::copy(hostmem_->bytes(addr, n), payload.begin());
    }
    CtrlHeader hdr{};
    hdr.kind = CtrlKind::kEager;
    hdr.tag = static_cast<std::uint32_t>(tag);
    hdr.bytes = static_cast<std::uint32_t>(n);
    hdr.src_rank = rank();
    send_ctrl(dst, hdr, payload);
    done.set(true);  // eager: buffer reusable immediately after the copy
    co_return;
  }

  // ---- rendezvous -----------------------------------------------------------
  const bool pipelined = gpu_src && n >= p.gpu_pipeline_threshold;
  const std::uint32_t chunks =
      pipelined ? static_cast<std::uint32_t>(
                      (n + p.gpu_pipeline_chunk - 1) / p.gpu_pipeline_chunk)
                : 1;
  std::uint64_t rndv_id =
      (static_cast<std::uint64_t>(rank()) << 40) | next_rndv_++;
  auto st = std::make_unique<RndvSend>(*sim_);
  st->dst = dst;
  st->addr = addr;
  st->n = n;
  st->is_gpu = gpu_src;
  Signal send_done = st->done;
  rndv_send_[rndv_id] = std::move(st);

  CtrlHeader rts{};
  rts.kind = CtrlKind::kRts;
  rts.tag = static_cast<std::uint32_t>(tag);
  rts.bytes = static_cast<std::uint32_t>(n);
  rts.chunks = chunks;
  rts.rndv_id = rndv_id;
  rts.src_rank = rank();
  send_ctrl(dst, rts);

  bool ok = co_await send_done;
  done.set(ok);
}

sim::Coro Rank::run_rndv_send(CtrlHeader cts) {
  auto it = rndv_send_.find(cts.rndv_id);
  if (it == rndv_send_.end()) co_return;
  RndvSend& st = *it->second;
  const MpiParams& p = world_->params();
  const std::uint64_t target = cts.aux;

  if (!st.is_gpu) {
    // Zero-copy RDMA write from the host user buffer.
    Signal done = st.done;
    hca_->post_send(st.dst, st.addr, static_cast<std::uint32_t>(st.n),
                    target, cts.rndv_id, true,
                    [done]() mutable { done.set(true); });
    rndv_send_.erase(it);
    co_return;
  }

  if (st.n < p.gpu_pipeline_threshold) {
    // Staged: one synchronous D2H copy, then one RDMA write.
    const std::uint64_t bounce = hostmem_->alloc(st.n);
    auto g = std::make_shared<sim::Gate>(*sim_);
    staged_copy(bounce, st.addr, st.n, g);
    co_await g->wait();
    Signal done = st.done;
    pcie::HostMemory* hm = hostmem_;
    hca_->post_send(st.dst, bounce, static_cast<std::uint32_t>(st.n), target,
                    cts.rndv_id, true, [done, bounce, hm]() mutable {
                      hm->free(bounce);
                      done.set(true);
                    });
    rndv_send_.erase(it);
    co_return;
  }

  // Pipelined: async D2H chunk copies overlapping the RDMA writes
  // (the MVAPICH2 large-message protocol referenced by the paper).
  const std::uint64_t bounce = hostmem_->alloc(st.n);
  const std::uint64_t chunk_size = p.gpu_pipeline_chunk;
  const std::uint32_t chunks = static_cast<std::uint32_t>(
      (st.n + chunk_size - 1) / chunk_size);
  auto sent = std::make_shared<std::uint32_t>(0);
  Signal done = st.done;
  const int dst = st.dst;
  const std::uint64_t src_addr = st.addr;
  const std::uint64_t total = st.n;
  const std::uint64_t rid = cts.rndv_id;
  pcie::HostMemory* hm = hostmem_;

  for (std::uint32_t c = 0; c < chunks; ++c) {
    const std::uint64_t off = static_cast<std::uint64_t>(c) * chunk_size;
    const std::uint64_t len = std::min(chunk_size, total - off);
    // Async D2H of this chunk; the stream serializes the copies while the
    // wire ships previously-copied chunks.
    co_await stream_->memcpy_async(bounce + off, src_addr + off, len);
    hca_->post_send(dst, bounce + off, static_cast<std::uint32_t>(len),
                    target + off, rid, true,
                    [sent, chunks, done, bounce, hm]() mutable {
                      if (++*sent == chunks) {
                        hm->free(bounce);
                        done.set(true);
                      }
                    });
  }
  rndv_send_.erase(it);
}

Signal Rank::recv(int src, std::uint64_t addr, std::uint64_t n, int tag) {
  Signal done(*sim_);
  PendingRecv pr{src, tag, addr, n, done};
  // Check the unexpected queue first.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->hdr.src_rank == src &&
        it->hdr.tag == static_cast<std::uint32_t>(tag)) {
      UnexpectedMsg msg = std::move(*it);
      unexpected_.erase(it);
      if (msg.hdr.kind == CtrlKind::kEager) {
        finish_eager_recv(std::move(pr), std::move(msg.data));
      } else {
        start_rndv_recv(msg.hdr, pr);
      }
      return done;
    }
  }
  posted_.push_back(std::move(pr));
  return done;
}

sim::Coro Rank::finish_eager_recv(PendingRecv pr,
                                  std::vector<std::uint8_t> data) {
  const MpiParams& p = world_->params();
  const std::uint64_t n = std::min<std::uint64_t>(pr.n, data.size());
  const auto received = std::span(data).first(n);
  if (is_gpu_ptr(pr.addr)) {
    const std::uint64_t vbuf = hostmem_->alloc(n);
    std::ranges::copy(received, hostmem_->bytes(vbuf, n).begin());
    auto g = std::make_shared<sim::Gate>(*sim_);
    staged_copy(pr.addr, vbuf, n, g);
    co_await g->wait();
    hostmem_->free(vbuf);
  } else {
    co_await sim::delay(*sim_,
                        units::transfer_time(Bytes(n), p.eager_copy_rate));
    std::ranges::copy(received, hostmem_->bytes(pr.addr, n).begin());
  }
  pr.done.set(true);
}

void Rank::start_rndv_recv(const CtrlHeader& rts, const PendingRecv& pr) {
  auto st = std::make_unique<RndvRecv>(*sim_);
  st->user_addr = pr.addr;
  st->user_is_gpu = is_gpu_ptr(pr.addr);
  st->n = rts.bytes;
  st->chunks = std::max<std::uint32_t>(rts.chunks, 1);
  st->done = pr.done;

  if (st->user_is_gpu) st->bounce = hostmem_->alloc(st->n);
  const std::uint64_t target = st->user_is_gpu ? st->bounce : pr.addr;

  CtrlHeader cts{};
  cts.kind = CtrlKind::kCts;
  cts.tag = rts.tag;
  cts.bytes = rts.bytes;
  cts.chunks = st->chunks;
  cts.rndv_id = rts.rndv_id;
  cts.aux = target;
  cts.src_rank = rank();
  rndv_recv_[rts.rndv_id] = std::move(st);
  send_ctrl(rts.src_rank, cts);
}

void Rank::match_or_store(CtrlHeader hdr, std::vector<std::uint8_t> data) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->src == hdr.src_rank &&
        static_cast<std::uint32_t>(it->tag) == hdr.tag) {
      PendingRecv pr = std::move(*it);
      posted_.erase(it);
      if (hdr.kind == CtrlKind::kEager) {
        finish_eager_recv(std::move(pr), std::move(data));
      } else {
        start_rndv_recv(hdr, pr);
      }
      return;
    }
  }
  unexpected_.push_back(UnexpectedMsg{hdr, std::move(data)});
}

sim::Coro Rank::progress_loop() {
  const MpiParams& p = world_->params();
  for (;;) {
    ib::IbRecvEvent ev = co_await hca_->recv_events().pop();

    if (ev.remote_addr != 0) {
      // Rendezvous chunk landed.
      auto it = rndv_recv_.find(ev.wr_id);
      if (it == rndv_recv_.end()) continue;
      RndvRecv& st = *it->second;
      const std::uint32_t idx = st.chunks_arrived++;
      if (st.user_is_gpu) {
        const std::uint64_t chunk_size =
            st.chunks > 1 ? p.gpu_pipeline_chunk : st.n;
        const std::uint64_t off =
            static_cast<std::uint64_t>(idx) * chunk_size;
        const std::uint64_t len = std::min(chunk_size, st.n - off);
        ++st.h2d_inflight;
        cuda::Done d =
            stream_->memcpy_async(st.user_addr + off, st.bounce + off, len);
        std::uint64_t id = ev.wr_id;
        [](Rank* self, cuda::Done d, std::uint64_t id) -> sim::Coro {
          co_await d;
          auto it2 = self->rndv_recv_.find(id);
          if (it2 == self->rndv_recv_.end()) co_return;
          RndvRecv& s = *it2->second;
          --s.h2d_inflight;
          if (s.all_arrived && s.h2d_inflight == 0) {
            self->hostmem_->free(s.bounce);
            s.done.set(true);
            self->rndv_recv_.erase(it2);
          }
        }(this, d, id);
      }
      if (st.chunks_arrived >= st.chunks) {
        st.all_arrived = true;
        if (!st.user_is_gpu) {
          st.done.set(true);
          rndv_recv_.erase(it);
        } else if (st.h2d_inflight == 0) {
          hostmem_->free(st.bounce);
          st.done.set(true);
          rndv_recv_.erase(it);
        }
      }
      continue;
    }

    // Control / eager message.
    if (ev.inline_data.size() < sizeof(CtrlHeader)) continue;
    CtrlHeader hdr;
    std::memcpy(&hdr, ev.inline_data.data(), sizeof(CtrlHeader));
    std::vector<std::uint8_t> data(ev.inline_data.begin() +
                                       sizeof(CtrlHeader),
                                   ev.inline_data.end());
    switch (hdr.kind) {
      case CtrlKind::kEager:
      case CtrlKind::kRts:
        match_or_store(hdr, std::move(data));
        break;
      case CtrlKind::kCts:
        run_rndv_send(hdr);
        break;
      case CtrlKind::kBarrier: {
        if (rank() == 0) {
          if (++barrier_hits_ == world_->size()) {
            barrier_hits_ = 0;
            CtrlHeader rel{};
            rel.kind = CtrlKind::kBarrier;
            rel.src_rank = 0;
            for (int r = 1; r < world_->size(); ++r) send_ctrl(r, rel);
            for (auto& w : barrier_waiters_) w.set(true);
            barrier_waiters_.clear();
          }
        } else {
          for (auto& w : barrier_waiters_) w.set(true);
          barrier_waiters_.clear();
        }
        break;
      }
      case CtrlKind::kReduce: {
        if (rank() == 0) {
          reduce_accum_ += hdr.aux;
          if (++reduce_hits_ == world_->size()) {
            reduce_hits_ = 0;
            CtrlHeader res{};
            res.kind = CtrlKind::kReduce;
            res.aux = reduce_accum_;
            res.src_rank = 0;
            for (int r = 1; r < world_->size(); ++r) send_ctrl(r, res);
            for (auto& [ptr, sig] : reduce_waiters_) {
              *ptr = reduce_accum_;
              sig.set(true);
            }
            reduce_waiters_.clear();
            reduce_accum_ = 0;
          }
        } else {
          for (auto& [ptr, sig] : reduce_waiters_) {
            *ptr = hdr.aux;
            sig.set(true);
          }
          reduce_waiters_.clear();
        }
        break;
      }
    }
  }
}

Signal Rank::barrier() {
  Signal done(*sim_);
  barrier_waiters_.push_back(done);
  CtrlHeader hdr{};
  hdr.kind = CtrlKind::kBarrier;
  hdr.src_rank = rank();
  if (rank() == 0) {
    // Root's own contribution is counted locally.
    if (++barrier_hits_ == world_->size()) {
      barrier_hits_ = 0;
      CtrlHeader rel{};
      rel.kind = CtrlKind::kBarrier;
      rel.src_rank = 0;
      for (int r = 1; r < world_->size(); ++r) send_ctrl(r, rel);
      for (auto& w : barrier_waiters_) w.set(true);
      barrier_waiters_.clear();
    }
  } else {
    send_ctrl(0, hdr);
  }
  return done;
}

Signal Rank::allreduce_sum(std::uint64_t* value) {
  Signal done(*sim_);
  reduce_waiters_.emplace_back(value, done);
  if (rank() == 0) {
    reduce_accum_ += *value;
    if (++reduce_hits_ == world_->size()) {
      reduce_hits_ = 0;
      CtrlHeader res{};
      res.kind = CtrlKind::kReduce;
      res.aux = reduce_accum_;
      res.src_rank = 0;
      for (int r = 1; r < world_->size(); ++r) send_ctrl(r, res);
      for (auto& [ptr, sig] : reduce_waiters_) {
        *ptr = reduce_accum_;
        sig.set(true);
      }
      reduce_waiters_.clear();
      reduce_accum_ = 0;
    }
  } else {
    CtrlHeader hdr{};
    hdr.kind = CtrlKind::kReduce;
    hdr.aux = *value;
    hdr.src_rank = rank();
    send_ctrl(0, hdr);
  }
  return done;
}

}  // namespace apn::mpi
