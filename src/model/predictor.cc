#include "model/predictor.h"

#include <istream>
#include <ostream>

#include "common/check.h"

namespace ecoscale {

const char* device_class_name(DeviceClass d) {
  switch (d) {
    case DeviceClass::kCpu: return "cpu";
    case DeviceClass::kLocalFabric: return "local_fabric";
    case DeviceClass::kRemoteFabric: return "remote_fabric";
  }
  return "?";
}

void CostPredictor::train() const {
  for (; trained_ < records_.size(); ++trained_) {
    const HistoryRecord& record = records_[trained_];
    auto& m = models_[{record.kernel, record.device}];
    const auto x = record.features.vector();
    m.time.observe(x, record.time_ns);
    m.energy.observe(x, record.energy_pj);
  }
}

Prediction CostPredictor::static_estimate(const KernelIR& kernel,
                                          DeviceClass device,
                                          const TaskFeatures& features) {
  Prediction p;
  p.from_model = false;
  const double items = features.items;
  switch (device) {
    case DeviceClass::kCpu:
      p.time_ns = kernel.cpu_cycles_per_item * items / 1.2;  // 1.2 GHz
      p.energy_pj = 120.0 * kernel.cpu_cycles_per_item * items;
      break;
    case DeviceClass::kLocalFabric: {
      // Assume a pipelined II≈1 implementation at a 0.25 GHz fabric clock
      // plus a reconfiguration amortisation constant.
      p.time_ns = items * 4.0 + 50000.0;
      p.energy_pj = 3.0 * kernel.ops.total() * items;
      break;
    }
    case DeviceClass::kRemoteFabric:
      p.time_ns = items * 6.0 + 80000.0;  // uncached remote data path
      p.energy_pj = 3.0 * kernel.ops.total() * items +
                    6.0 * features.bytes;
      break;
  }
  return p;
}

Prediction CostPredictor::predict(const KernelIR& kernel, DeviceClass device,
                                  const TaskFeatures& features) const {
  train();
  auto it = models_.find({kernel.id, device});
  if (it != models_.end()) {
    const auto x = features.vector();
    const auto t = it->second.time.predict(x);
    const auto e = it->second.energy.predict(x);
    if (t && e) {
      Prediction p;
      // Costs are physically non-negative; clamp the linear model.
      p.time_ns = std::max(0.0, *t);
      p.energy_pj = std::max(0.0, *e);
      p.from_model = true;
      return p;
    }
  }
  return static_estimate(kernel, device, features);
}

std::size_t CostPredictor::observations(KernelId kernel,
                                        DeviceClass device) const {
  const Models* m = models(kernel, device);
  return m == nullptr ? 0 : m->time.observations();
}

const CostPredictor::Models* CostPredictor::models(KernelId kernel,
                                                   DeviceClass device) const {
  train();
  auto it = models_.find({kernel, device});
  return it == models_.end() ? nullptr : &it->second;
}

void CostPredictor::save(std::ostream& os) const {
  os << "ecoscale-history-v1 " << records_.size() << "\n";
  for (const auto& r : records_) {
    os << r.kernel << ' ' << static_cast<int>(r.device) << ' '
       << r.features.items << ' ' << r.features.bytes << ' '
       << r.features.reuse << ' ' << r.features.branchiness << ' '
       << r.time_ns << ' ' << r.energy_pj << "\n";
  }
}

CostPredictor CostPredictor::load(std::istream& is) {
  std::string magic;
  std::size_t count = 0;
  is >> magic >> count;
  ECO_CHECK_MSG(magic == "ecoscale-history-v1", "bad history file header");
  CostPredictor p;
  for (std::size_t i = 0; i < count; ++i) {
    HistoryRecord r;
    int device = 0;
    is >> r.kernel >> device >> r.features.items >> r.features.bytes >>
        r.features.reuse >> r.features.branchiness >> r.time_ns >>
        r.energy_pj;
    ECO_CHECK_MSG(static_cast<bool>(is), "truncated history file");
    r.device = static_cast<DeviceClass>(device);
    p.observe(r);
  }
  return p;
}

}  // namespace ecoscale
