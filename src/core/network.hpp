// ApenetNetwork: wires a set of ApenetCards into a 3D torus, creating the
// directed link channels between neighbor ports (X+, X-, Y+, Y-, Z+, Z-).
#pragma once

#include <memory>
#include <vector>

#include "core/card.hpp"
#include "core/torus.hpp"
#include "sim/channel.hpp"

namespace apn::core {

class ApenetNetwork {
 public:
  ApenetNetwork(sim::Simulator& sim, TorusShape shape)
      : sim_(&sim), shape_(shape) {}

  const TorusShape& shape() const { return shape_; }

  /// Register card for the node at `shape.coord(index)`; cards must be
  /// added for all indices in order before wire() is called.
  void add_card(ApenetCard& card) { cards_.push_back(&card); }

  /// Create all torus link channels and hand them to the cards.
  void wire();

  ApenetCard& card(int index) { return *cards_.at(static_cast<std::size_t>(index)); }
  ApenetCard& card(TorusCoord c) { return card(shape_.index(c)); }
  int size() const { return static_cast<int>(cards_.size()); }

 private:
  sim::Simulator* sim_;
  TorusShape shape_;
  std::vector<ApenetCard*> cards_;
  std::vector<std::unique_ptr<sim::Channel>> channels_;
};

}  // namespace apn::core
