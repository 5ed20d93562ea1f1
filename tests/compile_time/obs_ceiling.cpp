// Compile-time observability ceiling: built with -DRJF_OBS_MAX_LEVEL=N for
// each level, the producer gates must fold to exactly the levels at or
// below N. Compiled with -fsyntax-only by ctest (tests/CMakeLists.txt).
#include "obs/event_ring.h"

#ifndef RJF_OBS_MAX_LEVEL
#error "compile with -DRJF_OBS_MAX_LEVEL=<0..3>"
#endif

namespace obs = rjf::obs;

static_assert(obs::kCompiledObsLevel ==
              static_cast<obs::ObsLevel>(RJF_OBS_MAX_LEVEL));
static_assert(obs::EventRing::want_spans() == (RJF_OBS_MAX_LEVEL >= 2));
static_assert(obs::EventRing::want_probes() == (RJF_OBS_MAX_LEVEL >= 3));
