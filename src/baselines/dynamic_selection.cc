#include "baselines/dynamic_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "math/vec.h"

namespace eadrl::baselines {

std::vector<std::vector<size_t>> ClusterModelsByCorrelation(
    const SlidingErrorTracker& tracker, double distance_threshold) {
  const size_t m = tracker.num_models();
  std::vector<std::vector<size_t>> clusters;
  clusters.reserve(m);
  for (size_t i = 0; i < m; ++i) clusters.push_back({i});

  // One correlation matrix per re-cluster; every merge pass reads it.
  const math::Matrix corr = tracker.PredictionCorrelations();
  auto cluster_distance = [&](const std::vector<size_t>& a,
                              const std::vector<size_t>& b) {
    // Average-link distance on 1 - correlation.
    double s = 0.0;
    for (size_t i : a) {
      for (size_t j : b) {
        s += 1.0 - corr(i, j);
      }
    }
    return s / static_cast<double>(a.size() * b.size());
  };

  while (clusters.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        double d = cluster_distance(clusters[i], clusters[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (best > distance_threshold) break;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + bj);
  }
  return clusters;
}

namespace {

// Picks the lowest-RMSE member of each cluster.
std::vector<size_t> ClusterRepresentatives(
    const SlidingErrorTracker& tracker,
    const std::vector<std::vector<size_t>>& clusters) {
  std::vector<size_t> reps;
  reps.reserve(clusters.size());
  for (const auto& cluster : clusters) {
    size_t best = cluster[0];
    for (size_t i : cluster) {
      if (tracker.Rmse(i) < tracker.Rmse(best)) best = i;
    }
    reps.push_back(best);
  }
  return reps;
}

}  // namespace

// ---------------------------------------------------------------------------
// Top.sel

TopSelCombiner::TopSelCombiner(size_t top_n, size_t window)
    : name_("Top.sel"), top_n_(top_n), window_(window) {}

Status TopSelCombiner::Initialize(const math::Matrix& val_preds,
                                  const math::Vec& val_actuals) {
  if (val_preds.cols() == 0) {
    return Status::InvalidArgument("Top.sel: no base models");
  }
  tracker_ = std::make_unique<SlidingErrorTracker>(val_preds.cols(), window_);
  tracker_->Warm(val_preds, val_actuals);
  return Status::Ok();
}

void TopSelCombiner::Update(const math::Vec& preds, double actual) {
  EADRL_CHECK(tracker_ != nullptr);
  tracker_->Add(preds, actual);
}

math::Vec TopSelCombiner::Weights() const {
  EADRL_CHECK(tracker_ != nullptr);
  return tracker_->InverseErrorWeights(tracker_->TopModels(top_n_));
}

// ---------------------------------------------------------------------------
// Clus

ClusCombiner::ClusCombiner(size_t window, double distance_threshold,
                           size_t recluster_every)
    : name_("Clus"),
      window_(window),
      distance_threshold_(distance_threshold),
      recluster_every_(recluster_every) {}

Status ClusCombiner::Initialize(const math::Matrix& val_preds,
                                const math::Vec& val_actuals) {
  if (val_preds.cols() == 0) {
    return Status::InvalidArgument("Clus: no base models");
  }
  tracker_ = std::make_unique<SlidingErrorTracker>(val_preds.cols(), window_);
  tracker_->Warm(val_preds, val_actuals);
  Recluster();
  return Status::Ok();
}

void ClusCombiner::Recluster() {
  representatives_ = ClusterRepresentatives(
      *tracker_, ClusterModelsByCorrelation(*tracker_, distance_threshold_));
  steps_since_recluster_ = 0;
}

void ClusCombiner::Update(const math::Vec& preds, double actual) {
  EADRL_CHECK(tracker_ != nullptr);
  tracker_->Add(preds, actual);
  if (++steps_since_recluster_ >= recluster_every_) Recluster();
}

math::Vec ClusCombiner::Weights() const {
  EADRL_CHECK(tracker_ != nullptr);
  return tracker_->InverseErrorWeights(representatives_);
}

// ---------------------------------------------------------------------------
// DEMSC

DemscCombiner::DemscCombiner() : DemscCombiner(Params()) {}

DemscCombiner::DemscCombiner(Params params)
    : name_("DEMSC"),
      params_(params),
      detector_(params.ph_delta, params.ph_lambda) {}

Status DemscCombiner::Initialize(const math::Matrix& val_preds,
                                 const math::Vec& val_actuals) {
  if (val_preds.cols() == 0) {
    return Status::InvalidArgument("DEMSC: no base models");
  }
  tracker_ =
      std::make_unique<SlidingErrorTracker>(val_preds.cols(), params_.window);
  tracker_->Warm(val_preds, val_actuals);
  detector_.Reset();
  drift_count_ = 0;
  Recluster();
  RefreshCommittee();
  return Status::Ok();
}

void DemscCombiner::Recluster() {
  // The expensive diversity analysis (pairwise correlation clustering) is
  // only recomputed when the drift detector fires — the "informed update"
  // the paper describes and Table III's runtime cost for DEMSC.
  clusters_ = ClusterModelsByCorrelation(*tracker_, params_.distance_threshold);
}

void DemscCombiner::RefreshCommittee() {
  // Per-step Top.sel pruning inside the cached clustering: keep each
  // cluster's best current member, restricted to the current top models.
  std::vector<size_t> top = tracker_->TopModels(params_.top_n);
  std::vector<std::vector<size_t>> restricted;
  for (const auto& cluster : clusters_) {
    std::vector<size_t> kept;
    for (size_t i : cluster) {
      if (std::find(top.begin(), top.end(), i) != top.end()) {
        kept.push_back(i);
      }
    }
    if (!kept.empty()) restricted.push_back(std::move(kept));
  }
  if (restricted.empty()) restricted.push_back(std::move(top));
  committee_ = ClusterRepresentatives(*tracker_, restricted);
}

void DemscCombiner::Update(const math::Vec& preds, double actual) {
  EADRL_CHECK(tracker_ != nullptr);
  // Ensemble error drives the drift detector (standardized by the window's
  // own magnitude through Page-Hinkley's adaptive mean).
  double ensemble_pred = core::Combine(Weights(), preds);
  tracker_->Add(preds, actual);
  if (detector_.Update(std::fabs(ensemble_pred - actual))) {
    ++drift_count_;
    Recluster();
  }
  RefreshCommittee();
}

math::Vec DemscCombiner::Weights() const {
  EADRL_CHECK(tracker_ != nullptr);
  return tracker_->InverseErrorWeights(committee_);
}

}  // namespace eadrl::baselines
