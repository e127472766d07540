#include "ib/hca.hpp"

#include <algorithm>
#include <utility>

namespace apn::ib {

Hca::Hca(sim::Simulator& sim, pcie::Fabric& fabric,
         pcie::HostMemory& hostmem, HcaParams params, int rank)
    : sim_(&sim),
      fabric_(&fabric),
      hostmem_(&hostmem),
      params_(params),
      rank_(rank),
      tx_queue_(sim),
      read_window_(sim, params.read_window),
      recv_events_(sim) {
  set_pcie_name("hca");
  tx_engine();
}

void Hca::post_send(int dst_rank, std::uint64_t local_addr,
                    std::uint32_t len, std::uint64_t remote_addr,
                    std::uint64_t wr_id, bool carry_data,
                    std::function<void()> on_sent) {
  WireMsg m;
  m.src_rank = rank_;
  m.dst_rank = dst_rank;
  m.remote_addr = remote_addr;
  m.bytes = len;
  m.wr_id = wr_id;
  m.carry_data = carry_data;
  m.on_sent = std::move(on_sent);
  if (carry_data && len > 0) {
    // Snapshot the source now (same contract as verbs: the buffer must
    // stay untouched until the send completes anyway).
    pcie::Payload p = pcie::Payload::timing(len);
    hostmem_->read(local_addr, p);
    m.data = std::move(p.data);
  }
  tx_queue_.push(std::move(m));
}

void Hca::post_send_inline(int dst_rank, std::vector<std::uint8_t> payload,
                           std::uint64_t wr_id,
                           std::function<void()> on_sent) {
  WireMsg m;
  m.src_rank = rank_;
  m.dst_rank = dst_rank;
  m.remote_addr = 0;
  m.bytes = static_cast<std::uint32_t>(payload.size());
  m.wr_id = wr_id;
  m.carry_data = true;
  m.data = std::move(payload);
  m.on_sent = std::move(on_sent);
  tx_queue_.push(std::move(m));
}

sim::Coro Hca::tx_engine() {
  for (;;) {
    WireMsg m = co_await tx_queue_.pop();
    co_await sim::delay(*sim_, params_.send_overhead);
    if (switch_ == nullptr || to_switch_ == nullptr) {
      if (m.on_sent) m.on_sent();
      continue;  // unwired HCA: drop
    }

    const std::uint32_t total = m.bytes;
    auto msg = std::make_shared<WireMsg>(std::move(m));

    if (total == 0) {
      // Zero-length send: a single header-only frame.
      IbSwitch* sw = switch_;
      to_switch_->send(
          Bytes(params_.wire_overhead),
          [sw, msg] {
            sw->egress(msg->dst_rank)
                .send(Bytes(sw->hca(msg->dst_rank).params_.wire_overhead),
                      [sw, msg] {
                        sw->hca(msg->dst_rank)
                            .deliver_frame(*msg, 0, {}, true);
                      });
          },
          [msg] {
            if (msg->on_sent) msg->on_sent();
          });
      continue;
    }

    std::uint32_t offset = 0;
    while (offset < total) {
      const std::uint32_t frame = std::min(params_.wire_mtu, total - offset);
      // DMA-read this frame from host memory through the bounded request
      // window; the window throttles how far the wire can run ahead.
      std::uint32_t got = 0;
      while (got < frame) {
        const std::uint32_t chunk =
            std::min(params_.read_request_bytes, frame - got);
        co_await read_window_.acquire(chunk);
        // A dummy address: the frame's bytes travel with the message,
        // so the read only paces the wire.
        fabric_->read(*this, /*addr=*/0x1000, chunk, /*with_data=*/false,
                      [this, chunk](pcie::Payload) {
                        read_window_.release(chunk);
                      });
        got += chunk;
      }
      const bool last = offset + frame >= total;
      std::vector<std::uint8_t> slice;
      if (!msg->data.empty()) {
        slice.assign(
            msg->data.begin() + static_cast<std::ptrdiff_t>(offset),
            msg->data.begin() + static_cast<std::ptrdiff_t>(offset + frame));
      }
      IbSwitch* sw = switch_;
      const std::uint32_t off = offset;
      auto sl = std::make_shared<std::vector<std::uint8_t>>(std::move(slice));
      auto forward = [sw, msg, sl, frame, off, last] {
        sw->egress(msg->dst_rank)
            .send(Bytes(frame + sw->hca(msg->dst_rank).params_.wire_overhead),
                  [sw, msg, sl, off, last] {
                    sw->hca(msg->dst_rank)
                        .deliver_frame(*msg, off, std::move(*sl), last);
                  });
      };
      // Only the last frame carries a serialized hook; intermediate frames
      // take the hookless path (no std::function boxed per frame).
      if (last) {
        to_switch_->send(Bytes(frame + params_.wire_overhead),
                         std::move(forward),
                         [msg] {
                           if (msg->on_sent) msg->on_sent();
                         });
      } else {
        to_switch_->send(Bytes(frame + params_.wire_overhead),
                         std::move(forward));
      }
      offset += frame;
    }
  }
}

void Hca::deliver_frame(const WireMsg& msg, std::uint32_t offset,
                        std::vector<std::uint8_t> slice, bool last) {
  const std::uint32_t frame =
      slice.empty() ? std::min(params_.wire_mtu, msg.bytes - offset)
                    : static_cast<std::uint32_t>(slice.size());
  // Capture only the message header, NOT the WireMsg (whose data vector
  // would otherwise be copied into every pending frame completion).
  const int src_rank = msg.src_rank;
  const std::uint64_t remote_addr = msg.remote_addr;
  const std::uint32_t bytes = msg.bytes;
  const std::uint64_t wr_id = msg.wr_id;
  auto finish = [this, src_rank, remote_addr, bytes, wr_id] {
    std::vector<std::uint8_t> assembled;
    auto key = std::make_pair(src_rank, wr_id);
    auto it = eager_assembly_.find(key);
    if (it != eager_assembly_.end()) {
      assembled = std::move(it->second);
      eager_assembly_.erase(it);
    }
    sim_->after(params_.recv_overhead,
                [this, src_rank, remote_addr, bytes, wr_id,
                 assembled = std::move(assembled)]() mutable {
                  IbRecvEvent ev;
                  ev.src_rank = src_rank;
                  ev.remote_addr = remote_addr;
                  ev.bytes = bytes;
                  ev.wr_id = wr_id;
                  ev.inline_data = std::move(assembled);
                  recv_events_.push(std::move(ev));
                });
  };

  if (msg.remote_addr != 0) {
    pcie::Payload p;
    p.bytes = msg.bytes == 0 ? 0 : frame;
    p.data = std::move(slice);
    if (msg.bytes == 0) {
      finish();
      return;
    }
    fabric_->post_write(*this, msg.remote_addr + offset, std::move(p),
                        [finish, last] {
                          if (last) finish();
                        });
  } else {
    if (!slice.empty()) {
      auto& buf = eager_assembly_[std::make_pair(msg.src_rank, msg.wr_id)];
      buf.insert(buf.end(), slice.begin(), slice.end());
    }
    if (last) finish();
  }
}

void IbSwitch::connect(Hca& hca) {
  sim::ChannelParams cp;
  cp.rate = hca.params().link_rate;
  cp.per_send_overhead = 0;
  cp.latency = hca.params().link_latency + port_latency_;
  up_.push_back(std::make_unique<sim::Channel>(*sim_, cp));
  cp.latency = hca.params().link_latency;
  down_.push_back(std::make_unique<sim::Channel>(*sim_, cp));
  hca.switch_ = this;
  hca.to_switch_ = up_.back().get();
  hcas_.push_back(&hca);
}

}  // namespace apn::ib
