// Per-device error-feedback accumulators (EF / "SGD with memory").
//
// Biased compressors (TopK) drop mass every round; plain TopK training
// therefore stalls at an error floor instead of converging. Error feedback
// repairs this by remembering what compression threw away and re-injecting
// it into the next update (Stich, Cordonnier & Jaggi, 2018; Karimireddy et
// al., 2019). The per-device recursion the channel runs on every uplink:
//
//     corrected_n  = delta_n + e_n            (compensate)
//     sent_n       = decode(encode(C(corrected_n)))   (what the server sees)
//     e_n         <- corrected_n - sent_n     (remember the new residual)
//
// Note the residual is measured against the *decoded* payload, so it also
// absorbs quantization error from the float32/int8 wire dtypes — EF makes
// aggressive dtypes safe the same way it makes TopK safe.
//
// Storage is KEYED BY DEVICE, not dense over the fleet: residual slots are
// registered on first use (ensure()), so a run that samples m of 1,000,000
// devices holds O(devices-ever-sampled · dim) residual state instead of
// O(N · dim). Registration mutates the map and must happen serially (the
// channel's prepare() pass); compensate/absorb only read the map structure
// and write one device's own vector, so the parallel solve path is safe
// once its devices are registered.
//
// Determinism: residuals are strictly per-device state, touched only from
// that device's uplink; rounds are sequential, so the recursion's history
// is independent of how devices are scheduled onto threads. A fresh zero
// slot behaves exactly like an eagerly allocated one (compensate still runs
// the axpy, which is NOT a bitwise no-op: -0.0 + 0.0 normalizes to +0.0),
// so keyed and dense storage produce bit-identical traces.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

namespace fedvr::comm {

class ErrorFeedback {
 public:
  /// Disabled accumulator (no slots, dim 0); apply() must not be called.
  ErrorFeedback() = default;

  /// Keyed accumulator with no registered slots: devices appear via
  /// ensure() (directly or through Channel::prepare).
  explicit ErrorFeedback(std::size_t dim);

  /// Eager form: pre-registers every device in [0, num_devices). Right for
  /// full-participation runs over small fleets; sampled large-fleet runs
  /// should use the keyed constructor plus ensure().
  ErrorFeedback(std::size_t num_devices, std::size_t dim);

  /// Registers `device` with a zero residual if it has none. NOT thread-
  /// safe (rehash): call serially, before any parallel compensate/absorb.
  void ensure(std::size_t device);

  /// True when `device` has a registered residual slot.
  [[nodiscard]] bool has(std::size_t device) const {
    return residuals_.contains(device);
  }

  /// delta += e_device (the compensation step). `device` must be
  /// registered.
  void compensate(std::size_t device, std::span<double> delta) const;

  /// e_device = corrected - reconstructed (the memory update). `corrected`
  /// is the compensated pre-compression delta, `reconstructed` the decoded
  /// message payload the server will aggregate. `device` must be
  /// registered.
  void absorb(std::size_t device, std::span<const double> corrected,
              std::span<const double> reconstructed);

  /// The current residual of one device (diagnostics, tests).
  [[nodiscard]] std::span<const double> residual(std::size_t device) const;

  /// Registered residual slots (== the fleet size for the eager
  /// constructor; devices seen so far for the keyed one).
  [[nodiscard]] std::size_t num_devices() const { return residuals_.size(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }

 private:
  std::size_t dim_ = 0;
  std::unordered_map<std::size_t, std::vector<double>> residuals_;
};

}  // namespace fedvr::comm
