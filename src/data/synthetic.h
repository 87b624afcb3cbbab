// Synthetic(alpha, beta): the heterogeneous synthetic dataset of Li et al.
// (FedProx), which the paper's §5 uses to "capture statistical
// heterogeneity".
//
// Per device k:
//   u_k ~ N(0, alpha)                  — controls how much local models differ
//   B_k ~ N(0, beta),  v_k,j ~ N(B_k, 1)   — controls how much local data differ
//   W_k ~ N(u_k, 1)^{classes x dim},  b_k ~ N(u_k, 1)^{classes}
//   x ~ N(v_k, Sigma) with Sigma_jj = j^{-1.2} (diagonal)
//   y = argmax(softmax(W_k x + b_k))
//
// alpha = beta = 0 still yields non-IID data (each device has its own
// model); the paper's "Synthetic" follows this recipe. Device sample counts
// follow a power law (lognormal sizes clipped to a range), matching the
// paper's ranges such as [37, 3277].
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fedvr::data {

struct SyntheticConfig {
  std::size_t num_devices = 100;
  std::size_t dim = 60;          // feature dimension (FedProx uses 60)
  std::size_t num_classes = 10;  // output classes (FedProx uses 10)
  double alpha = 1.0;            // model heterogeneity
  double beta = 1.0;             // data (feature) heterogeneity
  std::size_t min_samples = 37;   // paper's Synthetic range low end
  std::size_t max_samples = 3277; // paper's Synthetic range high end
  double lognormal_sigma = 1.5;   // spread of the power-law sample sizes
  double train_fraction = 0.75;   // paper: 75% train / 25% test
  std::uint64_t seed = 1;
};

/// Generates the full federated dataset: one (train, test) pair per device.
[[nodiscard]] FederatedDataset make_synthetic(const SyntheticConfig& config);

/// Generates device k's raw (unsplit) local dataset. With `held_out`, the
/// samples follow the same device model but come from a separate stream,
/// so they share none with the device's data (virtual-fleet test sets).
[[nodiscard]] Dataset make_synthetic_device(const SyntheticConfig& config,
                                            std::size_t device,
                                            std::size_t num_samples,
                                            bool held_out = false);

/// IID control federation: every device samples from the *same* global
/// model and feature distribution (u_k, v_k, W_k, b_k shared), so the only
/// cross-device differences are sampling noise and the power-law sizes.
/// Used as the homogeneous baseline in heterogeneity experiments.
[[nodiscard]] FederatedDataset make_synthetic_iid(
    const SyntheticConfig& config);

/// Power-law device sample sizes in [min_samples, max_samples]:
/// lognormal draws rescaled into the range. Deterministic in config.seed.
[[nodiscard]] std::vector<std::size_t> power_law_sizes(
    std::size_t num_devices, std::size_t min_samples, std::size_t max_samples,
    double lognormal_sigma, std::uint64_t seed);

}  // namespace fedvr::data
