// Model of the UHD user-register bus exposed to host applications.
//
// The paper's core is controlled through the UHD "user register" interface:
// a 32-bit data bus plus an 8-bit address bus, giving up to 255 programmable
// 32-bit registers; the design uses 24 of them (paper §2.2). This file
// defines that exact register map and a RegisterFile the host writes
// through (see radio/settings_bus.h for the latency model of the write path).
#pragma once

#include <array>
#include <cstdint>

namespace rjf::fpga {

/// Register map of the custom DSP core. 24 registers, mirroring the paper:
/// run-time loadable cross-correlator coefficients, detection thresholds,
/// jammer settings, and antenna control.
enum class Reg : std::uint8_t {
  // 64 3-bit signed I coefficients packed 8-per-register (4-bit fields).
  kXcorrCoefI0 = 0,
  kXcorrCoefI1,
  kXcorrCoefI2,
  kXcorrCoefI3,
  kXcorrCoefI4,
  kXcorrCoefI5,
  kXcorrCoefI6,
  kXcorrCoefI7,
  // 64 3-bit signed Q coefficients, same packing.
  kXcorrCoefQ0 = 8,
  kXcorrCoefQ1,
  kXcorrCoefQ2,
  kXcorrCoefQ3,
  kXcorrCoefQ4,
  kXcorrCoefQ5,
  kXcorrCoefQ6,
  kXcorrCoefQ7,
  kXcorrThreshold = 16,   // unsigned correlation-magnitude^2 threshold
  kEnergyThreshHigh = 17, // Q8.8 linear ratio for energy-rise detection
  kEnergyThreshLow = 18,  // Q8.8 linear ratio for energy-fall detection
  kEnergyFloor = 19,      // minimum 32-sample energy sum to arm the detector
  kTriggerConfig = 20,    // 3-stage FSM: 3x4-bit event masks + enables
  kTriggerWindow = 21,    // max clock cycles for the full trigger sequence
  kJammerControl = 22,    // bits[1:0] waveform, bit2 enable, bits[31:16] delay
  kJamDuration = 23,      // jam uptime in baseband samples (40 ns units)
};

inline constexpr std::size_t kNumUserRegisters = 24;

/// Trigger event bit positions inside each kTriggerConfig 4-bit mask.
enum TriggerEventBit : std::uint32_t {
  kEventXcorr = 1u << 0,
  kEventEnergyHigh = 1u << 1,
  kEventEnergyLow = 1u << 2,
};

/// Jamming waveform selector values (paper §2.4).
enum class JamWaveform : std::uint32_t {
  kWhiteNoise = 0,   // pseudorandom 25 MHz WGN
  kReplay = 1,       // repetitive replay of up to 512 recent RX samples
  kHostStream = 2,   // waveform streamed to the TX buffer from host
};

/// Simple dual-port register file: host writes, fabric reads every cycle.
class RegisterFile {
 public:
  RegisterFile() noexcept { regs_.fill(0); }

  void write(Reg addr, std::uint32_t value) noexcept {
    regs_[static_cast<std::size_t>(addr)] = value;
    ++generation_;
  }
  [[nodiscard]] std::uint32_t read(Reg addr) const noexcept {
    return regs_[static_cast<std::size_t>(addr)];
  }

  /// The number of writes so far (write() and set_coefficient(), and the
  /// field helpers through them). DspCore::apply_registers() re-latches
  /// only when it has moved.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  // -- Packed coefficient helpers ------------------------------------------
  /// Pack one 3-bit signed coefficient (clamped to [-4, 3]) into its register.
  void set_coefficient(bool q_bank, std::size_t index, int value) noexcept;
  [[nodiscard]] int coefficient(bool q_bank, std::size_t index) const noexcept;

  // -- Field helpers for the composite registers ---------------------------
  void set_jammer(JamWaveform waveform, bool enable,
                  std::uint16_t delay_samples) noexcept;
  [[nodiscard]] JamWaveform jam_waveform() const noexcept;
  [[nodiscard]] bool jam_enabled() const noexcept;
  [[nodiscard]] std::uint16_t jam_delay_samples() const noexcept;

  /// Configure the 3-stage trigger FSM. Unused stages take mask 0.
  void set_trigger_stages(std::uint32_t mask0, std::uint32_t mask1,
                          std::uint32_t mask2) noexcept;
  [[nodiscard]] std::uint32_t trigger_stage_mask(int stage) const noexcept;
  [[nodiscard]] int num_trigger_stages() const noexcept;

 private:
  std::array<std::uint32_t, kNumUserRegisters> regs_{};
  std::uint64_t generation_ = 0;
};

// The dB <-> Q8.8 threshold conversions live on the host side of the
// register bus: core/fabric_units.h. The fabric only ever sees the fixed
// point encoding.

}  // namespace rjf::fpga
