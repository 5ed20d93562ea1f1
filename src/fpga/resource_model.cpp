#include "fpga/resource_model.h"

namespace rjf::fpga {

std::vector<ResourceUsage> block_resources() {
  return {
      // Paper Fig. 3 resource box.
      {"cross_correlator", 2613, 2647, 12, 2818, 0, 2},
      // Paper Fig. 4 resource box.
      {"energy_differentiator", 1262, 1313, 0, 2513, 0, 6},
      // Estimates for the blocks whose boxes the paper does not print,
      // sized from their register/arithmetic content.
      {"trigger_fsm", 96, 118, 0, 142, 0, 0},
      {"jammer_controller", 412, 486, 2, 655, 0, 0},
      {"register_file", 210, 772, 0, 388, 0, 0},
      {"timing_and_io", 148, 205, 0, 231, 0, 0},
  };
}

ResourceUsage total_resources() {
  ResourceUsage total;
  total.block = "total";
  for (const auto& r : block_resources()) {
    total.slices += r.slices;
    total.ffs += r.ffs;
    total.brams += r.brams;
    total.luts += r.luts;
    total.iobs += r.iobs;
    total.dsp48 += r.dsp48;
  }
  return total;
}

Utilisation utilisation(const DeviceCapacity& device) {
  const ResourceUsage t = total_resources();
  Utilisation u;
  u.slices_pct = 100.0 * t.slices / device.slices;  // rjf-analyze: allow(fabric.float-in-datapath)
  u.ffs_pct = 100.0 * t.ffs / device.ffs;  // rjf-analyze: allow(fabric.float-in-datapath)
  u.brams_pct = 100.0 * t.brams / device.brams;  // rjf-analyze: allow(fabric.float-in-datapath)
  u.luts_pct = 100.0 * t.luts / device.luts;  // rjf-analyze: allow(fabric.float-in-datapath)
  u.dsp48_pct = 100.0 * t.dsp48 / device.dsp48;  // rjf-analyze: allow(fabric.float-in-datapath)
  return u;
}

}  // namespace rjf::fpga
