// Static FPGA resource model.
//
// Reproduces the resource boxes printed inside the paper's block diagrams
// (Fig. 3 for the cross-correlator, Fig. 4 for the energy differentiator)
// and estimates utilisation of the USRP N210's Spartan-3A DSP 3400 part so
// the bench_resources target can print the same style of report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rjf::fpga {

struct ResourceUsage {
  std::string block;
  std::uint32_t slices = 0;
  std::uint32_t ffs = 0;
  std::uint32_t brams = 0;
  std::uint32_t luts = 0;
  std::uint32_t iobs = 0;
  std::uint32_t dsp48 = 0;
};

/// Per-block usage. The cross-correlator and energy differentiator rows are
/// the paper's reported synthesis numbers; the remaining blocks are
/// estimates derived from their datapath widths.
[[nodiscard]] std::vector<ResourceUsage> block_resources();

/// Sum across all blocks.
[[nodiscard]] ResourceUsage total_resources();

/// Capacity of the XC3SD3400A (USRP N210 rev 4 fabric).
struct DeviceCapacity {
  std::uint32_t slices = 23872;
  std::uint32_t ffs = 47744;
  std::uint32_t brams = 126;
  std::uint32_t luts = 47744;
  std::uint32_t dsp48 = 126;
};

/// Utilisation percentage of the custom core against the device, per field.
struct Utilisation {
  double slices_pct = 0.0;  // rjf-analyze: allow(fabric.float-in-datapath)
  double ffs_pct = 0.0;  // rjf-analyze: allow(fabric.float-in-datapath)
  double brams_pct = 0.0;  // rjf-analyze: allow(fabric.float-in-datapath)
  double luts_pct = 0.0;  // rjf-analyze: allow(fabric.float-in-datapath)
  double dsp48_pct = 0.0;  // rjf-analyze: allow(fabric.float-in-datapath)
};

[[nodiscard]] Utilisation utilisation(const DeviceCapacity& device = {});

}  // namespace rjf::fpga
