// Host-boundary unit conversions for programming the fabric registers.
//
// The fabric model in src/fpga is pure fixed-point — no float or double
// survives past the register bus (`python3 tools/rjf_analyze --pass fabric`
// enforces this). The
// operator-facing units, however, are continuous: energy thresholds are
// specified in dB (paper: "any energy level change between 3dB and 30dB")
// and correlator templates start life as float baseband waveforms rendered
// from the standards' preamble definitions. These helpers perform the
// lossy float-to-fixed-point quantisation once, on the host side of the
// bus, exactly like the paper's offline coefficient generation (§2.3).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "fpga/cross_correlator.h"

namespace rjf::core {

/// Convert an energy-change threshold in dB (paper: 3..30 dB) to the Q8.8
/// linear power-ratio encoding stored in kEnergyThreshHigh/Low.
[[nodiscard]] std::uint32_t energy_threshold_q88_from_db(double db) noexcept;
[[nodiscard]] double energy_threshold_db_from_q88(std::uint32_t q88) noexcept;

/// Offline coefficient generation (paper §2.3): quantise the reference
/// waveform's first 64 samples to 3-bit signed values per rail, scaled so
/// the largest rail magnitude is 3.
[[nodiscard]] fpga::CorrelatorTemplate make_template(
    std::span<const dsp::cfloat> reference);

}  // namespace rjf::core
