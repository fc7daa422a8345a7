#include "hermes/health.hpp"

#include <algorithm>

namespace hermes::hermes_proto {

void HealthMonitor::note_delivered(net::NodeId origin, std::uint64_t seq) {
  note_seen(origin, seq);
  Progress& p = origins_[origin];
  if (seq <= p.contiguous) return;
  if (seq != p.contiguous + 1) {
    p.ahead.insert(seq);
    return;
  }
  ++p.contiguous;
  // Drain any out-of-order deliveries the frontier just caught up with —
  // without this a single reordering would leave a phantom gap open
  // forever and the node would chase sequences it already has.
  while (!p.ahead.empty() && *p.ahead.begin() <= p.contiguous + 1) {
    if (*p.ahead.begin() == p.contiguous + 1) ++p.contiguous;
    p.ahead.erase(p.ahead.begin());
  }
}

void HealthMonitor::note_seen(net::NodeId origin, std::uint64_t seq) {
  std::uint64_t& max_seen = origins_[origin].max_seen;
  max_seen = std::max(max_seen, seq);
}

void HealthMonitor::tick(sim::SimTime now) {
  for (auto& [origin, p] : origins_) {
    if (p.max_seen > p.contiguous) {
      if (p.gap_since < 0.0) p.gap_since = now;
    } else {
      p.gap_since = -1.0;
    }
  }
}

void HealthMonitor::note_overlay_shortfall(std::size_t overlay_index) {
  ++shortfall_[overlay_index];
}

void HealthMonitor::on_epoch_advanced() {
  // Gap timers restart: in-flight holes will be re-observed against the
  // new generation, and counting pre-change degradation twice would defeat
  // the hysteresis.
  for (auto& [origin, p] : origins_) p.gap_since = -1.0;
  removed_since_epoch_ = 0;
  trs_give_ups_since_epoch_ = 0;
  failed_repairs_ = 0;
}

std::vector<std::pair<net::NodeId, std::uint64_t>> HealthMonitor::horizon()
    const {
  std::vector<std::pair<net::NodeId, std::uint64_t>> out;
  out.reserve(origins_.size());
  for (const auto& [origin, p] : origins_) out.emplace_back(origin, p.max_seen);
  return out;
}

std::vector<HealthMonitor::Gap> HealthMonitor::stale_gaps(
    sim::SimTime now) const {
  std::vector<Gap> out;
  for (const auto& [origin, p] : origins_) {
    if (p.gap_since < 0.0) continue;
    if (now - p.gap_since < kGapPullAfterMs) continue;
    out.push_back(Gap{origin, p.contiguous + 1, p.max_seen});
  }
  return out;
}

bool HealthMonitor::gap_stale(net::NodeId origin, sim::SimTime now) const {
  const auto it = origins_.find(origin);
  if (it == origins_.end() || it->second.gap_since < 0.0) return false;
  return now - it->second.gap_since >= kGapPullAfterMs;
}

std::size_t HealthMonitor::stale_gap_count(sim::SimTime now) const {
  std::size_t count = 0;
  for (const auto& [origin, p] : origins_) {
    if (p.gap_since >= 0.0 && now - p.gap_since >= kGapPullAfterMs) {
      ++count;
    }
  }
  return count;
}

std::size_t HealthMonitor::overlay_shortfall(std::size_t overlay_index) const {
  const auto it = shortfall_.find(overlay_index);
  return it == shortfall_.end() ? 0 : it->second;
}

std::size_t HealthMonitor::total_overlay_shortfall() const {
  std::size_t total = 0;
  for (const auto& [idx, count] : shortfall_) total += count;
  return total;
}

double HealthMonitor::degradation_score(double failed_repair_weight,
                                        sim::SimTime now) const {
  return static_cast<double>(removed_since_epoch_) +
         failed_repair_weight * static_cast<double>(failed_repairs_) +
         0.5 * static_cast<double>(stale_gap_count(now)) +
         0.5 * static_cast<double>(trs_give_ups_since_epoch_);
}

}  // namespace hermes::hermes_proto
