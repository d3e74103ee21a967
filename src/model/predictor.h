// Input-dependent execution-time / energy predictors and the Execution
// History store (paper §4.2 and Figure 5's "Execution History" block).
//
// For every (kernel, device-class) pair the runtime keeps a regression
// model over input features. The training part happens online: each
// completed task contributes one observation; the actuation part is the
// scheduler's predict() call. Training is lazy: observe() only appends to
// the history, and the first read after it (predict(), observations())
// replays the untrained records into the models in arrival order, so the
// coefficients and the prequential error come out exactly as if every
// record had been trained on arrival — while a policy that never predicts
// never solves.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "hls/ir.h"
#include "model/regression.h"

namespace ecoscale {

enum class DeviceClass : std::uint8_t { kCpu = 0, kLocalFabric = 1,
                                        kRemoteFabric = 2 };

const char* device_class_name(DeviceClass d);

/// Task input descriptor — the "static and dynamic properties of the
/// input" the models correlate with cost.
struct TaskFeatures {
  double items = 0;        // input size (work items)
  double bytes = 0;        // input + output footprint
  double reuse = 1.0;      // access-pattern locality proxy (1 = streaming)
  double branchiness = 0;  // data-dependent control (hurts HW)

  static constexpr std::size_t kDims = 5;
  std::array<double, kDims> vector() const {
    return {1.0, items, bytes, items * reuse, branchiness * items};
  }
};

struct HistoryRecord {
  KernelId kernel = 0;
  DeviceClass device = DeviceClass::kCpu;
  TaskFeatures features;
  double time_ns = 0;
  double energy_pj = 0;
};

struct Prediction {
  double time_ns = 0;
  double energy_pj = 0;
  bool from_model = false;  // false = static fallback estimate
};

class CostPredictor {
 public:
  /// The learned models of one (kernel, device) pair.
  struct Models {
    RidgeRegression time{TaskFeatures::kDims};
    RidgeRegression energy{TaskFeatures::kDims};
  };

  CostPredictor() = default;

  /// Record a completed execution (training part; applied to the models
  /// at the next read).
  void observe(const HistoryRecord& record) { records_.push_back(record); }

  /// Predict cost of running `kernel` with `features` on `device`.
  /// Falls back to an analytic estimate derived from the KernelIR until the
  /// model has enough observations.
  Prediction predict(const KernelIR& kernel, DeviceClass device,
                     const TaskFeatures& features) const;

  std::size_t observations(KernelId kernel, DeviceClass device) const;

  /// The pair's models, trained on every record so far (nullptr before the
  /// pair's first observation): coefficients and prequential error.
  const Models* models(KernelId kernel, DeviceClass device) const;

  /// Serialise / restore the History file (paper: "A history of the
  /// function calls as well as their execution time is stored in a History
  /// file").
  void save(std::ostream& os) const;
  static CostPredictor load(std::istream& is);

  const std::vector<HistoryRecord>& records() const { return records_; }

 private:
  using ModelKey = std::pair<KernelId, DeviceClass>;

  static Prediction static_estimate(const KernelIR& kernel,
                                    DeviceClass device,
                                    const TaskFeatures& features);
  /// Train the models on records_[trained_..], in arrival order.
  void train() const;

  mutable std::map<ModelKey, Models> models_;
  mutable std::size_t trained_ = 0;  // records_ already in the models
  std::vector<HistoryRecord> records_;
};

}  // namespace ecoscale
