// One-call construction of the k optimized overlays HERMES uses — the
// offline "overlay construction and optimization" phase of Figure 1.
#pragma once

#include <vector>

#include "net/graph.hpp"
#include "overlay/annealing.hpp"
#include "overlay/overlay.hpp"
#include "overlay/robust_tree.hpp"
#include "support/rng.hpp"

namespace hermes::overlay {

struct BuilderParams {
  std::size_t f = 1;
  std::size_t k = 10;  // number of overlays
  bool optimize = true;
  // Role rotation (Section V-B): accumulate ranks across trees so later
  // trees move previously-favored nodes away from the root. Disabling
  // freezes ranks at zero — every tree elects the same entry points
  // (ablation bench only; real deployments keep this on).
  bool rotate_roles = true;
  AnnealingParams annealing;
};

struct OverlaySet {
  std::vector<Overlay> overlays;
  RankTable final_ranks;
};

// Builds k robust trees with shared rank accounting, annealing each before
// the next tree's ranks are computed (Algorithm 1 line 25: optimize, then
// move on). Deterministic given the rng seed.
OverlaySet build_overlay_set(const net::Graph& g, const BuilderParams& params,
                             Rng& rng);

// Warm-started rebuild: instead of growing each tree from scratch, seed
// tree l with the previous epoch's tree l after surgically detaching and
// re-attaching every churned node (departures demote from their old slots,
// joiners get fresh placements), then anneal from that warm start. A tree
// whose surgery fails (local repair or attachment impossible) falls back
// to the scratch robust-tree build. `churned` must be sorted ascending —
// the canonical application order that keeps results byte-identical across
// replicas. Deterministic given the rng seed.
OverlaySet build_overlay_set_warm(const net::Graph& g,
                                  const BuilderParams& params,
                                  const OverlaySet& previous,
                                  const std::vector<NodeId>& churned, Rng& rng);

}  // namespace hermes::overlay
