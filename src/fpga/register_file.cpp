#include "fpga/register_file.h"

#include "fpga/hw_int.h"

namespace rjf::fpga {
namespace {

constexpr std::size_t kCoefsPerReg = 8;  // 4-bit fields in a 32-bit register

std::size_t coef_reg_index(bool q_bank, std::size_t index) noexcept {
  const auto base = static_cast<std::size_t>(q_bank ? Reg::kXcorrCoefQ0
                                                    : Reg::kXcorrCoefI0);
  return base + index / kCoefsPerReg;
}

}  // namespace

void RegisterFile::set_coefficient(bool q_bank, std::size_t index,
                                   int value) noexcept {
  if (index >= 64) return;
  // Clamp into the 3-bit signed coefficient range, then pack the two's
  // complement bits into the 4-bit bus field (bit 3 is a spare the RTL
  // carries but the correlator never reads).
  const hw::Int<3> clamped = hw::sat_s<3>(value);
  const std::uint32_t field = hw::wrap_u<4>(clamped).zext<32>().value();
  const std::size_t reg = coef_reg_index(q_bank, index);
  const unsigned shift = 4u * static_cast<unsigned>(index % kCoefsPerReg);
  regs_[reg] = (regs_[reg] & ~(0xFu << shift)) | (field << shift);
  ++generation_;
}

int RegisterFile::coefficient(bool q_bank, std::size_t index) const noexcept {
  if (index >= 64) return 0;
  const std::size_t reg = coef_reg_index(q_bank, index);
  const unsigned shift = 4u * static_cast<unsigned>(index % kCoefsPerReg);
  // The correlator consumes 3-bit signed coefficients: bit 3 of the bus
  // field is a spare the fabric never reads, so decode wraps to 3-bit two's
  // complement exactly like the bit-plane decomposition does. (This used to
  // sign-extend all 4 bits, so a rogue raw register write made this readout
  // disagree with what the correlator actually computed.)
  return hw::wrap_s<3>(regs_[reg] >> shift).value();
}

void RegisterFile::set_jammer(JamWaveform waveform, bool enable,
                              std::uint16_t delay_samples) noexcept {
  const hw::UInt<32> value = hw::from_enum<2>(waveform).zext<32>() |
                             hw::UInt<32>(enable ? 0x4u : 0x0u) |
                             hw::UInt<16>(delay_samples).shl<16>();
  write(Reg::kJammerControl, value.value());
}

JamWaveform RegisterFile::jam_waveform() const noexcept {
  return hw::to_enum<JamWaveform>(hw::wrap_u<2>(read(Reg::kJammerControl)));
}

bool RegisterFile::jam_enabled() const noexcept {
  return (read(Reg::kJammerControl) & 0x4u) != 0;
}

std::uint16_t RegisterFile::jam_delay_samples() const noexcept {
  return hw::wrap_u<16>(read(Reg::kJammerControl) >> 16).value();
}

void RegisterFile::set_trigger_stages(std::uint32_t mask0, std::uint32_t mask1,
                                      std::uint32_t mask2) noexcept {
  const std::uint32_t value =
      (mask0 & 0xFu) | ((mask1 & 0xFu) << 4) | ((mask2 & 0xFu) << 8);
  write(Reg::kTriggerConfig, value);
}

std::uint32_t RegisterFile::trigger_stage_mask(int stage) const noexcept {
  if (stage < 0 || stage > 2) return 0;
  return (read(Reg::kTriggerConfig) >> (4 * stage)) & 0xFu;
}

int RegisterFile::num_trigger_stages() const noexcept {
  int n = 0;
  for (int stage = 0; stage < 3; ++stage)
    if (trigger_stage_mask(stage) != 0) n = stage + 1;
  return n;
}

}  // namespace rjf::fpga
