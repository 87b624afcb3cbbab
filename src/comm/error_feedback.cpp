#include "comm/error_feedback.h"

#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::comm {

ErrorFeedback::ErrorFeedback(std::size_t dim) : dim_(dim) {
  FEDVR_CHECK_MSG(dim > 0, "error feedback needs dim >= 1");
}

ErrorFeedback::ErrorFeedback(std::size_t num_devices, std::size_t dim)
    : dim_(dim) {
  FEDVR_CHECK_MSG(num_devices > 0, "error feedback needs >= 1 device");
  FEDVR_CHECK_MSG(dim > 0, "error feedback needs dim >= 1");
  residuals_.reserve(num_devices);
  for (std::size_t n = 0; n < num_devices; ++n) ensure(n);
}

void ErrorFeedback::ensure(std::size_t device) {
  FEDVR_CHECK_MSG(dim_ > 0, "error feedback is disabled (dim 0)");
  const auto [it, inserted] = residuals_.try_emplace(device);
  if (inserted) it->second.assign(dim_, 0.0);
}

void ErrorFeedback::compensate(std::size_t device,
                               std::span<double> delta) const {
  const auto it = residuals_.find(device);
  FEDVR_CHECK_MSG(it != residuals_.end(),
                  "device " << device << " has no residual slot (ensure() or "
                  "Channel::prepare() it before uplinking)");
  FEDVR_CHECK_MSG(delta.size() == dim_, "delta size mismatch");
  tensor::axpy(1.0, it->second, delta);
}

void ErrorFeedback::absorb(std::size_t device,
                           std::span<const double> corrected,
                           std::span<const double> reconstructed) {
  const auto it = residuals_.find(device);
  FEDVR_CHECK_MSG(it != residuals_.end(),
                  "device " << device << " has no residual slot");
  FEDVR_CHECK_MSG(corrected.size() == dim_ && reconstructed.size() == dim_,
                  "residual size mismatch");
  tensor::sub(corrected, reconstructed, it->second);
}

std::span<const double> ErrorFeedback::residual(std::size_t device) const {
  const auto it = residuals_.find(device);
  FEDVR_CHECK_MSG(it != residuals_.end(),
                  "device " << device << " has no residual slot");
  return it->second;
}

}  // namespace fedvr::comm
