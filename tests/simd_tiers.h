// The SIMD tiers a test can run on this host: scalar up to the tier
// active_isa() picked. A per-tier suite loops over them so a narrower tier
// is checked against the scalar reference on a host whose dispatcher would
// never pick it.
#pragma once

#include <vector>

#include "dsp/simd/dispatch.h"

namespace rjf::test {

inline std::vector<dsp::simd::Isa> host_tiers() {
  std::vector<dsp::simd::Isa> tiers;
  for (int t = 0; t <= static_cast<int>(dsp::simd::active_isa()); ++t)
    tiers.push_back(static_cast<dsp::simd::Isa>(t));
  return tiers;
}

}  // namespace rjf::test
