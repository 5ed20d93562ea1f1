#include "fpga/register_file.h"

#include <gtest/gtest.h>

#include "core/fabric_units.h"

namespace rjf::fpga {
namespace {

TEST(RegisterFile, StartsZeroed) {
  const RegisterFile regs;
  for (std::size_t r = 0; r < kNumUserRegisters; ++r)
    EXPECT_EQ(regs.read(static_cast<Reg>(r)), 0u);
}

TEST(RegisterFile, ReadBackAfterWrite) {
  RegisterFile regs;
  regs.write(Reg::kXcorrThreshold, 0xDEADBEEFu);
  EXPECT_EQ(regs.read(Reg::kXcorrThreshold), 0xDEADBEEFu);
}

TEST(RegisterFile, GenerationCountsEveryWrite) {
  // DspCore::apply_registers() re-latches only when the generation moved,
  // so every path that stores a register must bump it, an unchanged value
  // included.
  RegisterFile regs;
  std::uint64_t gen = regs.generation();
  regs.write(Reg::kXcorrThreshold, 0);
  EXPECT_GT(regs.generation(), gen);
  gen = regs.generation();
  regs.set_coefficient(true, 63, -2);
  EXPECT_GT(regs.generation(), gen);
  gen = regs.generation();
  regs.set_jammer(JamWaveform::kReplay, true, 3);
  EXPECT_GT(regs.generation(), gen);
  gen = regs.generation();
  regs.set_trigger_stages(kEventXcorr, 0, 0);
  EXPECT_GT(regs.generation(), gen);
  gen = regs.generation();
  (void)regs.read(Reg::kXcorrThreshold);
  (void)regs.coefficient(true, 63);
  EXPECT_EQ(regs.generation(), gen);
}

TEST(RegisterFile, RegisterBudgetMatchesPaper) {
  // Paper §2.2: "Our current design makes use of 24 of these user registers."
  EXPECT_EQ(kNumUserRegisters, 24u);
  EXPECT_EQ(static_cast<std::size_t>(Reg::kJamDuration), 23u);
}

TEST(Coefficients, RoundTripAllPositions) {
  RegisterFile regs;
  for (std::size_t k = 0; k < 64; ++k) {
    const int v = static_cast<int>(k % 7) - 3;  // -3..3
    regs.set_coefficient(false, k, v);
    regs.set_coefficient(true, k, -v);
  }
  for (std::size_t k = 0; k < 64; ++k) {
    const int v = static_cast<int>(k % 7) - 3;
    EXPECT_EQ(regs.coefficient(false, k), v) << "I coef " << k;
    EXPECT_EQ(regs.coefficient(true, k), -v) << "Q coef " << k;
  }
}

TEST(Coefficients, ClampToThreeBitSigned) {
  RegisterFile regs;
  regs.set_coefficient(false, 0, 100);
  EXPECT_EQ(regs.coefficient(false, 0), 3);
  regs.set_coefficient(false, 1, -100);
  EXPECT_EQ(regs.coefficient(false, 1), -4);
}

TEST(Coefficients, RogueRawWriteDecodesLikeTheFabric) {
  // Regression test: coefficient() used to sign-extend the full 4-bit bus
  // field ([-8, 7]) while the correlator's bit-plane decomposition only ever
  // reads the low 3 bits, so a raw register write with the spare bit set
  // made the host readout disagree with what the fabric computed. The
  // decode now wraps to 3-bit two's complement, matching the datapath.
  RegisterFile regs;
  regs.write(Reg::kXcorrCoefI0, 0x88888888u);  // every field 0b1000
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(regs.coefficient(false, k), 0) << "I coef " << k;

  regs.write(Reg::kXcorrCoefQ0, 0xFCFCFCFCu);  // fields alternate 0xC, 0xF
  for (std::size_t k = 0; k < 8; ++k) {
    // 0xC -> low bits 100 -> -4; 0xF -> 111 -> -1. Both in contract range,
    // identical to what the bit planes decode for the same raw bits.
    EXPECT_EQ(regs.coefficient(true, k), (k % 2 == 0) ? -4 : -1)
        << "Q coef " << k;
  }

  // Values written through the packing helper are unaffected: the spare bit
  // is never set, so 3-bit and 4-bit decodes agree for every legal value.
  for (int v = -4; v <= 3; ++v) {
    regs.set_coefficient(false, 0, v);
    EXPECT_EQ(regs.coefficient(false, 0), v);
  }
}

TEST(Coefficients, OutOfRangeIndexIgnored) {
  RegisterFile regs;
  regs.set_coefficient(false, 64, 3);  // silently ignored
  EXPECT_EQ(regs.coefficient(false, 64), 0);
}

TEST(Coefficients, PackingDoesNotDisturbNeighbours) {
  RegisterFile regs;
  for (std::size_t k = 0; k < 8; ++k) regs.set_coefficient(false, k, 2);
  regs.set_coefficient(false, 3, -1);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_EQ(regs.coefficient(false, k), k == 3 ? -1 : 2);
}

TEST(JammerField, EncodeDecode) {
  RegisterFile regs;
  regs.set_jammer(JamWaveform::kReplay, true, 1234);
  EXPECT_EQ(regs.jam_waveform(), JamWaveform::kReplay);
  EXPECT_TRUE(regs.jam_enabled());
  EXPECT_EQ(regs.jam_delay_samples(), 1234);

  regs.set_jammer(JamWaveform::kHostStream, false, 0);
  EXPECT_EQ(regs.jam_waveform(), JamWaveform::kHostStream);
  EXPECT_FALSE(regs.jam_enabled());
}

TEST(TriggerStages, CountAndMasks) {
  RegisterFile regs;
  regs.set_trigger_stages(kEventXcorr, kEventEnergyHigh, 0);
  EXPECT_EQ(regs.num_trigger_stages(), 2);
  EXPECT_EQ(regs.trigger_stage_mask(0), kEventXcorr);
  EXPECT_EQ(regs.trigger_stage_mask(1), kEventEnergyHigh);
  EXPECT_EQ(regs.trigger_stage_mask(2), 0u);
  EXPECT_EQ(regs.trigger_stage_mask(3), 0u);  // out of range
}

TEST(TriggerStages, ThreeStagesMax) {
  RegisterFile regs;
  regs.set_trigger_stages(1, 2, 4);
  EXPECT_EQ(regs.num_trigger_stages(), 3);
}

TEST(EnergyThreshold, Q88ConversionRoundTrips) {
  // Paper: "any energy level change between 3dB and 30dB".
  for (const double db : {3.0, 6.0, 10.0, 20.0, 30.0}) {
    const auto q88 = core::energy_threshold_q88_from_db(db);
    EXPECT_NEAR(core::energy_threshold_db_from_q88(q88), db, 0.05) << db;
  }
}

TEST(EnergyThreshold, TenDbIsFactorTenQ88) {
  EXPECT_EQ(core::energy_threshold_q88_from_db(10.0), 2560u);  // 10.0 * 256
}

}  // namespace
}  // namespace rjf::fpga
