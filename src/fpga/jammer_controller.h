// Jamming transmit controller (paper §2.4).
//
// On a trigger from the TriggerFsm the controller (optionally after a
// programmable delay used for "surgical" jamming of specific packet
// locations) schedules the TX pipeline: 1 cycle to initiate plus ~7 cycles
// to populate the DUC — 8 clock cycles (~80 ns) before RF energy leaves the
// antenna. It then emits one of three user-selectable waveforms for the
// programmed uptime:
//   (i)  pseudorandom 25 MHz white Gaussian noise,
//   (ii) repetitive replay of up to the 512 most recently received samples,
//   (iii) the waveform currently streamed to the TX buffer from the host.
// Uptime ranges from 1 sample (40 ns) to 2^32 samples.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "fpga/hw_int.h"
#include "fpga/register_file.h"

namespace rjf::fpga {

inline constexpr std::size_t kReplayDepth = 512;
// The replay ring is indexed with a power-of-two mask, not `%`.
static_assert(std::has_single_bit(kReplayDepth));
inline constexpr std::size_t kReplayMask = kReplayDepth - 1;
inline constexpr std::uint32_t kTxInitCycles = 8;  // 1 trigger + 7 DUC fill
inline constexpr std::uint32_t kClocksPerSample = 4;  // 100 MHz / 25 MSPS

// Jump tables of the noise LFSR. The Galois step
// s -> (s >> 1) ^ (s & 1 ? taps : 0) is linear over GF(2), and a state whose
// low k bits are clear just shifts through k steps.
// - Four steps are (s >> 4) ^ feedback4[s & 0xF], and eight (one sample,
//   two rails) are (s >> 8) ^ feedback8[s & 0xFF].
// - The low byte after step j <= 4 depends only on state bits 0..j+7 (bits
//   j..j+7 shifted down, plus the feedback of bits 0..j-1), so the four low
//   bytes' sum is a function of bits 0..11: sum4[s & 0xFFF].
// - The state 32 steps on (four samples) is the XOR of what each byte of s
//   contributes alone: jump32[k][byte k of s], four independent lookups.
// All of them are built by stepping the LFSR itself.
struct LfsrJumpTables {
  std::array<hw::UInt<10>, 4096> sum4{};    // <= 4 * 255 = 1020
  std::array<hw::UInt<32>, 16> feedback4{};
  std::array<hw::UInt<32>, 256> feedback8{};
  std::array<std::array<hw::UInt<32>, 256>, 4> jump32{};
};

inline constexpr hw::UInt<32> kLfsrTaps{0xB4BCD35Cu};  // taps 32,31,29,1

// One Galois step: logical shift right (the top bit refills with zero),
// then the tap mask if a 1 was shifted out.
consteval hw::UInt<32> galois_step(hw::UInt<32> s) {
  const bool lsb = s.truncate<1>() == 1u;
  s = s.shr<1>().zext<32>();
  return lsb ? s ^ kLfsrTaps : s;
}

consteval hw::UInt<32> galois_steps(hw::UInt<32> s, int steps) {
  for (int k = 0; k < steps; ++k) s = galois_step(s);
  return s;
}

consteval LfsrJumpTables build_lfsr_jump_tables() {
  LfsrJumpTables t;
  for (std::uint32_t v = 0; v < t.sum4.size(); ++v) {
    hw::UInt<32> s(v);
    hw::UInt<10> acc;
    for (int k = 0; k < 4; ++k) {
      s = galois_step(s);
      acc = (acc + s.truncate<8>()).narrow<10>();
    }
    t.sum4[v] = acc;
    if (v < t.feedback4.size()) t.feedback4[v] = s;
  }
  for (std::uint32_t v = 0; v < t.feedback8.size(); ++v) {
    const hw::UInt<8> byte(v);
    t.feedback8[v] = galois_steps(byte.zext<32>(), 8);
    t.jump32[0][v] = galois_steps(byte.zext<32>(), 32);
    t.jump32[1][v] = galois_steps(byte.shl<8>().zext<32>(), 32);
    t.jump32[2][v] = galois_steps(byte.shl<16>().zext<32>(), 32);
    t.jump32[3][v] = galois_steps(byte.shl<24>(), 32);
  }
  return t;
}

inline constexpr LfsrJumpTables kLfsrJump = build_lfsr_jump_tables();

// The on-fabric WGN generator, one arithmetic for every path: a sample is
// the sum of the low bytes after each of four Galois steps from LFSR state
// s (the I rail), then after four more (the Q rail), centred and scaled (a
// cheap CLT Gaussian approximation that fits in fabric logic). The state
// then moves eight steps per sample, or 32 per four samples in a batch.

/// One rail from state s: sum4 of the four steps after s, centred and
/// scaled to ~1/4 full scale RMS.
[[nodiscard]] inline std::int16_t wgn_rail(hw::UInt<32> s) noexcept {
  const hw::UInt<10> acc = kLfsrJump.sum4[s.truncate<12>().u64()];
  // acc in [0, 1020]. The centred value rides in Int<12>, the scaled
  // product in Int<18>, and |result| <= 12240 fits the 16-bit DAC rail.
  return ((acc.to_signed() - hw::Int<11>(510)) * hw::Int<6>(24))
      .narrow<16>()
      .value();
}

/// The TX sample drawn from LFSR state s: I from the four steps after s, Q
/// from the four after those.
[[nodiscard]] inline dsp::IQ16 wgn_sample(hw::UInt<32> s) noexcept {
  const hw::UInt<32> s4 =
      s.shr<4>().zext<32>() ^ kLfsrJump.feedback4[s.truncate<4>().u64()];
  return dsp::IQ16{wgn_rail(s), wgn_rail(s4)};
}

/// The state one sample (eight steps) on.
[[nodiscard]] inline hw::UInt<32> lfsr_step8(hw::UInt<32> s) noexcept {
  return s.shr<8>().zext<32>() ^ kLfsrJump.feedback8[s.truncate<8>().u64()];
}

/// One baseband sample period (kClocksPerSample fabric clocks) of
/// DspCore::run_block() output, folded to what the radio consumes: whether
/// jamming energy was on the air on any of the period's clocks, and the TX
/// sample issued in it (the last one, should a period ever hold two).
struct SamplePeriodOutput {
  dsp::IQ16 tx{};          // valid when tx_strobe
  bool tx_strobe = false;  // a TX sample was issued in this period
  bool rf_active = false;  // jamming energy on the air on any clock
};

/// out.size() consecutive mid-burst WGN periods from LFSR state `state`,
/// which ends up past them: record k holds wgn_sample() of the state 8k
/// steps on, on the air with its strobe. The loop-carried chain is one
/// 32-step jump (jump32) per four samples; the states in between hang off
/// it through lfsr_step8(), so successive groups overlap. A tail of up to
/// three samples takes lfsr_step8() alone.
void wgn_fill(hw::UInt<32>& state, std::span<SamplePeriodOutput> out) noexcept;

class JammerController {
 public:
  JammerController();

  void load_from_registers(const RegisterFile& regs) noexcept;

  /// Direct configuration (tests/ablations).
  void configure(JamWaveform waveform, bool enable,
                 std::uint32_t delay_samples, std::uint32_t uptime_samples) noexcept;

  /// Replace the host-streamed TX buffer (waveform (iii)).
  void set_host_waveform(std::vector<dsp::IQ16> samples);

  /// Record one received sample into the replay ring (runs continuously).
  void record_rx(dsp::IQ16 sample) noexcept {
    replay_[replay_write_] = sample;
    replay_write_ = (replay_write_ + 1) & kReplayMask;
  }

  /// record_rx() of each sample of `rx` in order. Only the last
  /// kReplayDepth can survive in the ring, so only they are copied.
  void record_rx_block(std::span<const dsp::IQ16> rx) noexcept {
    if (rx.size() > kReplayDepth) {
      replay_write_ = (replay_write_ + rx.size() - kReplayDepth) & kReplayMask;
      rx = rx.last(kReplayDepth);
    }
    const std::size_t head = std::min(rx.size(), kReplayDepth - replay_write_);
    std::ranges::copy(rx.first(head),
                      std::span(replay_).subspan(replay_write_).begin());
    std::ranges::copy(rx.subspan(head), replay_.begin());
    replay_write_ = (replay_write_ + rx.size()) & kReplayMask;
  }

  struct TxOut {
    bool rf_active = false;     // true while jamming energy is on the air
    dsp::IQ16 sample{};         // valid when rf_active and sample_strobe
    bool sample_strobe = false; // true on the clock a new TX sample is issued
  };

  /// Advance one 100 MHz clock. `trigger` is the FSM's jam pulse. Inline:
  /// the block path runs it on every clock while the jammer is busy.
  TxOut clock(bool trigger) noexcept {
    TxOut out;
    switch (state_) {
      case State::kIdle:
        if (trigger && enabled_) {
          ++jam_count_;
          // Replay starts at the oldest recorded sample; the host-stream
          // buffer always plays from its beginning.
          playback_pos_ =
              (waveform_ == JamWaveform::kReplay) ? replay_write_ : 0;
          // The trigger clock itself is the "1 cycle to initiate"; the
          // remaining kTxInitCycles-1 clocks fill the DUC, so RF energy is
          // on the air exactly kTxInitCycles (80 ns) after the trigger.
          if (delay_samples_ > 0) {
            state_ = State::kDelay;
            countdown_cycles_ =
                delay_samples_ * hw::UInt<3>(kClocksPerSample);
          } else {
            state_ = State::kInit;
            countdown_cycles_ = hw::UInt<19>(kTxInitCycles - 1);
          }
        }
        break;
      case State::kDelay:
        countdown_cycles_ = hw::wrap_dec(countdown_cycles_);
        if (countdown_cycles_ == 0) {
          state_ = State::kInit;
          countdown_cycles_ = hw::UInt<19>(kTxInitCycles - 1);
        }
        break;
      case State::kInit:
        countdown_cycles_ = hw::wrap_dec(countdown_cycles_);
        if (countdown_cycles_ == 0) {
          state_ = State::kJamming;
          remaining_samples_ = uptime_samples_ == 0 ? hw::UInt<32>(1u)
                                                    : uptime_samples_;
          strobe_phase_ = hw::UInt<2>();
        }
        break;
      case State::kJamming:
        out.rf_active = true;
        if (strobe_phase_ == 0) {
          out.sample_strobe = true;
          out.sample = next_waveform_sample();
          remaining_samples_ = hw::wrap_dec(remaining_samples_);
          if (remaining_samples_ == 0) state_ = State::kIdle;
        }
        strobe_phase_ = hw::wrap_inc(strobe_phase_);  // 2-bit wrap == mod 4
        break;
    }
    return out;
  }

  /// True when the next sample period (kClocksPerSample clocks) is on the
  /// air end to end and the burst outlives it: kJamming with at least two
  /// samples left. Such a period issues exactly one TX sample, because the
  /// 2-bit strobe phase passes 0 once in any four clocks.
  [[nodiscard]] bool mid_burst() const noexcept {
    return state_ == State::kJamming && remaining_samples_ > 1u;
  }

  /// For how many sample periods in a row mid_burst() holds from here, each
  /// advanced by jam_period(): every sample the burst has left but its last.
  [[nodiscard]] std::uint64_t mid_burst_periods() const noexcept {
    return state_ == State::kJamming ? remaining_samples_.u64() - 1 : 0;
  }

  /// True when the next clock issues a TX sample (the strobe phase is 0).
  [[nodiscard]] bool strobe_due() const noexcept { return strobe_phase_ == 0; }

  /// Advance one whole sample period while mid_burst() and return the TX
  /// sample it issues. Bit-identical to kClocksPerSample clock() calls:
  /// the busy jammer ignores a trigger on any of them, the burst loses one
  /// sample, and the strobe phase wraps back to where it started.
  [[nodiscard]] dsp::IQ16 jam_period() noexcept {
    remaining_samples_ = hw::wrap_dec(remaining_samples_);
    return next_waveform_sample();
  }

  /// rx.size() whole sample periods while mid_burst() holds throughout
  /// (rx.size() <= mid_burst_periods()), each record_rx() of its rx sample
  /// and then jam_period() into its record of `out` (which holds
  /// rx.size()). The WGN waveform, which never reads the replay ring,
  /// records the stretch in one record_rx_block() and issues its samples
  /// through wgn_fill(); replay and the host stream keep the per-sample
  /// loop, because the ring must be written before each read.
  void jam_periods(std::span<const dsp::IQ16> rx,
                   std::span<SamplePeriodOutput> out) noexcept;

  /// Advance `samples` baseband sample periods (kClocksPerSample clocks
  /// each, no triggers) without per-clock work, resolving the delay/init
  /// countdowns and the burst's strobe schedule arithmetically. Exact
  /// w.r.t. jam scheduling: state, remaining uptime and strobe phase end up
  /// where clocking would leave them, so busy(), rf_active() and every
  /// later clock's rf_active/sample_strobe match. The waveform does not
  /// advance across the gap: the LFSR, replay and host-stream positions
  /// stay where they were, as if the skipped samples were never generated.
  /// Used to skip air time the host never saw (overflow gaps, idle air in
  /// the network simulation).
  void fast_forward(std::uint64_t samples) noexcept;

  /// True while jamming energy is on the air.
  [[nodiscard]] bool rf_active() const noexcept {
    return state_ == State::kJamming;
  }

  [[nodiscard]] bool busy() const noexcept { return state_ != State::kIdle; }
  [[nodiscard]] std::uint64_t jam_count() const noexcept { return jam_count_; }

  void reset() noexcept;

 private:
  enum class State { kIdle, kDelay, kInit, kJamming };

  [[nodiscard]] dsp::IQ16 next_waveform_sample() noexcept {
    switch (waveform_) {
      case JamWaveform::kWhiteNoise: {
        const dsp::IQ16 s = wgn_sample(lfsr_);
        lfsr_ = lfsr_step8(lfsr_);
        return s;
      }
      case JamWaveform::kReplay: {
        const dsp::IQ16 s = replay_[playback_pos_];
        playback_pos_ = (playback_pos_ + 1) & kReplayMask;
        return s;
      }
      case JamWaveform::kHostStream: {
        if (host_waveform_.empty()) return dsp::IQ16{};
        const dsp::IQ16 s =
            host_waveform_[playback_pos_ % host_waveform_.size()];
        playback_pos_ = (playback_pos_ + 1) % host_waveform_.size();
        return s;
      }
    }
    return dsp::IQ16{};
  }

  State state_ = State::kIdle;
  JamWaveform waveform_ = JamWaveform::kWhiteNoise;
  bool enabled_ = false;
  hw::UInt<16> delay_samples_;   // the kJammerControl field is bits[31:16]
  hw::UInt<32> uptime_samples_;

  // kDelay / kInit phase timer: at most delay * 4 clocks, so 18 bits, plus
  // one for the kTxInitCycles reload path.
  hw::UInt<19> countdown_cycles_;
  hw::UInt<32> remaining_samples_;  // kJamming phase sample counter
  // 100 MHz clock / 25 MSPS strobe divider: a free-running 2-bit counter
  // whose wrap IS the mod-4 divide.
  static_assert(kClocksPerSample == 4);
  hw::UInt<2> strobe_phase_;

  std::array<dsp::IQ16, kReplayDepth> replay_{};
  std::size_t replay_write_ = 0;
  std::size_t playback_pos_ = 0;
  std::vector<dsp::IQ16> host_waveform_;

  // On-fabric noise generator: 32-bit Galois LFSR feeding a CLT shaper
  // (wgn_sample()).
  hw::UInt<32> lfsr_{0xACE1ACE1u};

  std::uint64_t jam_count_ = 0;
};

}  // namespace rjf::fpga
