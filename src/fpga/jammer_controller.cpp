#include "fpga/jammer_controller.h"

#include <algorithm>

namespace rjf::fpga {
namespace {

// The state four samples (32 steps) on.
hw::UInt<32> lfsr_jump32(hw::UInt<32> s) noexcept {
  const auto& j = kLfsrJump.jump32;
  return j[0][s.truncate<8>().u64()] ^ j[1][s.shr<8>().truncate<8>().u64()] ^
         j[2][s.shr<16>().truncate<8>().u64()] ^ j[3][s.shr<24>().u64()];
}

}  // namespace

JammerController::JammerController() = default;

void JammerController::load_from_registers(const RegisterFile& regs) noexcept {
  waveform_ = regs.jam_waveform();
  enabled_ = regs.jam_enabled();
  delay_samples_ = hw::UInt<16>(regs.jam_delay_samples());
  uptime_samples_ = hw::UInt<32>(regs.read(Reg::kJamDuration));
}

void JammerController::configure(JamWaveform waveform, bool enable,
                                 std::uint32_t delay_samples,
                                 std::uint32_t uptime_samples) noexcept {
  waveform_ = waveform;
  enabled_ = enable;
  // The register field for the delay is 16 bits (kJammerControl[31:16]);
  // the checked constructor rejects configs the hardware couldn't hold.
  delay_samples_ = hw::UInt<16>(delay_samples);
  uptime_samples_ = hw::UInt<32>(uptime_samples);
}

void JammerController::set_host_waveform(std::vector<dsp::IQ16> samples) {
  host_waveform_ = std::move(samples);
}

void wgn_fill(hw::UInt<32>& state,
              std::span<SamplePeriodOutput> out) noexcept {
  hw::UInt<32> s = state;
  std::size_t n = 0;
  for (; n + 4 <= out.size(); n += 4) {
    const hw::UInt<32> s8 = lfsr_step8(s);
    const hw::UInt<32> s16 = lfsr_step8(s8);
    const hw::UInt<32> s24 = lfsr_step8(s16);
    out[n] = SamplePeriodOutput{wgn_sample(s), true, true};
    out[n + 1] = SamplePeriodOutput{wgn_sample(s8), true, true};
    out[n + 2] = SamplePeriodOutput{wgn_sample(s16), true, true};
    out[n + 3] = SamplePeriodOutput{wgn_sample(s24), true, true};
    s = lfsr_jump32(s);
  }
  for (; n < out.size(); ++n) {
    out[n] = SamplePeriodOutput{wgn_sample(s), true, true};
    s = lfsr_step8(s);
  }
  state = s;
}

void JammerController::jam_periods(std::span<const dsp::IQ16> rx,
                                   std::span<SamplePeriodOutput> out) noexcept {
  remaining_samples_ = hw::UInt<32>(remaining_samples_.u64() - rx.size());
  if (waveform_ == JamWaveform::kWhiteNoise) {
    record_rx_block(rx);
    wgn_fill(lfsr_, out.first(rx.size()));
    return;
  }
  for (std::size_t n = 0; n < rx.size(); ++n) {
    record_rx(rx[n]);
    out[n] = SamplePeriodOutput{next_waveform_sample(), true, true};
  }
}

void JammerController::fast_forward(std::uint64_t samples) noexcept {
  std::uint64_t cycles = samples * kClocksPerSample;
  while (cycles > 0) {
    switch (state_) {
      case State::kIdle:
        return;
      case State::kDelay:
      case State::kInit: {
        const std::uint64_t used =
            std::min<std::uint64_t>(cycles, countdown_cycles_.u64());
        countdown_cycles_ = hw::UInt<19>(countdown_cycles_.u64() - used);
        cycles -= used;
        if (countdown_cycles_ == 0) {
          if (state_ == State::kDelay) {
            state_ = State::kInit;
            countdown_cycles_ = hw::UInt<19>(kTxInitCycles - 1);
          } else {
            state_ = State::kJamming;
            remaining_samples_ = uptime_samples_ == 0 ? hw::UInt<32>(1u)
                                                      : uptime_samples_;
            strobe_phase_ = hw::UInt<2>();
          }
        }
        break;
      }
      case State::kJamming: {
        // Strobes fall at clock offsets first + 4k; the one for the last
        // remaining sample (k = remaining - 1) ends the burst on its clock.
        const std::uint64_t first =
            (kClocksPerSample - strobe_phase_.u64()) % kClocksPerSample;
        const std::uint64_t to_end =
            first + (remaining_samples_.u64() - 1) * kClocksPerSample + 1;
        const std::uint64_t used = std::min(cycles, to_end);
        const std::uint64_t strobes =
            used > first ? (used - first - 1) / kClocksPerSample + 1 : 0;
        remaining_samples_ =
            hw::UInt<32>(remaining_samples_.u64() - strobes);
        strobe_phase_ = hw::wrap_u<2>(strobe_phase_.u64() + used);
        if (remaining_samples_ == 0) state_ = State::kIdle;
        cycles -= used;
        break;
      }
    }
  }
}

void JammerController::reset() noexcept {
  state_ = State::kIdle;
  countdown_cycles_ = hw::UInt<19>();
  remaining_samples_ = hw::UInt<32>();
  strobe_phase_ = hw::UInt<2>();
  playback_pos_ = 0;
  jam_count_ = 0;
}

}  // namespace rjf::fpga
