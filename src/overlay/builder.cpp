#include "overlay/builder.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "overlay/repair.hpp"
#include "support/thread_pool.hpp"

namespace hermes::overlay {

namespace {

// The worker pool for parallel candidate scoring, shared by all k trees of
// one build; null when annealing runs on one lane.
std::unique_ptr<ThreadPool> make_pool(const BuilderParams& params) {
  if (params.optimize && params.annealing.workers > 1 &&
      params.annealing.batch_size > 1) {
    const std::size_t lanes =
        std::min(params.annealing.workers, params.annealing.batch_size);
    return std::make_unique<ThreadPool>(lanes - 1);
  }
  return nullptr;
}

// The shared per-tree tail of both build paths: anneal the seed tree and
// fold its optimized depths into the accumulated rank table.
void optimize_and_rank(Overlay&& tree, std::size_t l, const net::Graph& g,
                       const BuilderParams& params, const RankTable& before,
                       OverlaySet& set, Rng& rng, ThreadPool* pool) {
  if (params.optimize) {
    Rng anneal_rng = rng.fork(0x5eedl + l);
    tree = anneal(tree, g, before, params.annealing, anneal_rng, pool);
    // Re-derive the rank contribution (root proximity, see robust_tree.cpp)
    // from the optimized depths.
    const double max_depth = static_cast<double>(tree.max_depth());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      set.final_ranks[v] =
          before[v] + max_depth - static_cast<double>(tree.depth(v)) + 1.0;
    }
  }
  set.overlays.push_back(std::move(tree));
}

// Rank snapshot before tree l (the builder updates ranks itself; annealing
// judges rank penalties against the pre-update table so the current tree
// is not penalized for its own placements).
RankTable rank_snapshot(const BuilderParams& params, OverlaySet& set) {
  if (!params.rotate_roles) {
    // Ablation mode: every tree sees zero ranks (no rotation pressure).
    std::fill(set.final_ranks.begin(), set.final_ranks.end(), 0.0);
  }
  return set.final_ranks;
}

}  // namespace

OverlaySet build_overlay_set(const net::Graph& g, const BuilderParams& params,
                             Rng& rng) {
  OverlaySet set;
  set.final_ranks.assign(g.node_count(), 0.0);
  set.overlays.reserve(params.k);

  const auto pool = make_pool(params);

  for (std::size_t l = 0; l < params.k; ++l) {
    const RankTable before = rank_snapshot(params, set);
    Overlay tree = build_robust_tree(g, params.f, set.final_ranks);
    optimize_and_rank(std::move(tree), l, g, params, before, set, rng,
                      pool.get());
  }
  return set;
}

OverlaySet build_overlay_set_warm(const net::Graph& g,
                                  const BuilderParams& params,
                                  const OverlaySet& previous,
                                  const std::vector<NodeId>& churned, Rng& rng,
                                  const LinkCostCache* costs) {
  OverlaySet set;
  set.final_ranks.assign(g.node_count(), 0.0);
  set.overlays.reserve(params.k);

  const auto pool = make_pool(params);

  for (std::size_t l = 0; l < params.k; ++l) {
    const RankTable before = rank_snapshot(params, set);

    // Warm seed: previous epoch's tree l with every churned node detached
    // and re-attached in ascending-id order. All N nodes stay placed (a
    // structural requirement of Overlay::validate), but churned nodes move
    // to fresh positions chosen by the incremental join placement.
    std::optional<Overlay> seed;
    if (l < previous.overlays.size() &&
        previous.overlays[l].node_count() == g.node_count()) {
      Overlay warm = previous.overlays[l];
      bool ok = true;
      for (NodeId v : churned) {
        if (warm.depth(v) == 0) continue;  // already unplaced
        if (!remove_node_locally(warm, v, g).ok) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (NodeId v : churned) {
          if (!attach_node_locally(warm, v, g, costs,
                                   params.annealing.weights)
                   .ok) {
            ok = false;
            break;
          }
        }
      }
      if (ok) seed = std::move(warm);
    }
    Overlay tree = seed ? std::move(*seed)
                        : build_robust_tree(g, params.f, set.final_ranks);
    optimize_and_rank(std::move(tree), l, g, params, before, set, rng,
                      pool.get());
  }
  return set;
}

}  // namespace hermes::overlay
