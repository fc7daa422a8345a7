#include "hermes/epoch_pipeline.hpp"

namespace hermes::hermes_proto {

void EpochPipeline::on_membership_change(const MembershipDelta& delta) {
  if (queue_.size() >= kQueueCap) {
    queue_.pop_front();
    ++dropped_;
  }
  queue_.push_back(delta);
  if (annealing_) return;  // growth is detected when the anneal completes
  if (queue_.size() < kHysteresis) {
    // Every node already spliced this delta into its routing trees via
    // local repair / incremental join placement; no epoch rebuild needed.
    ++absorbed_;
    return;
  }
  start_anneal();
}

void EpochPipeline::start_anneal() {
  annealing_ = true;
  snapshot_size_ = queue_.size();
  retries_ = 0;
  schedule_(kAnnealMs, [this] { on_anneal_done(); });
}

void EpochPipeline::on_anneal_done() {
  if (queue_.size() != snapshot_size_ && retries_ < kMaxRetries) {
    // Churn landed mid-anneal: the pipelined overlay set would be stale on
    // arrival. Restart against the current queue, backing off so a storm
    // cannot keep the pipeline spinning.
    ++invalidations_;
    ++retries_;
    snapshot_size_ = queue_.size();
    double delay = kAnnealMs;
    for (std::size_t i = 0; i < retries_; ++i) delay *= kRetryBackoff;
    schedule_(delay, [this] { on_anneal_done(); });
    return;
  }
  const std::vector<MembershipDelta> deltas(queue_.begin(), queue_.end());
  queue_.clear();
  annealing_ = false;
  ++pipelined_installs_;
  install_(deltas);
}

}  // namespace hermes::hermes_proto
