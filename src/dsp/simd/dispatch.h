// Runtime ISA dispatch for the host SIMD DSP kernels (DESIGN.md section 12).
//
// Every kernel in src/dsp/simd exists in up to three variants: a scalar
// reference (the authority — it lives next to the call site, e.g. the
// Viterbi loop in phy80211/convolutional.cpp), an AVX2 build and an AVX-512
// build. `active_isa()` picks the widest tier that is (a) compiled in (the
// toolchain accepted -mavx2 / -mavx512f -mavx512vpopcntdq and
// RJF_ENABLE_SIMD was ON), (b) supported by the CPU we are running on, and
// (c) not vetoed by the RJF_DISABLE_SIMD environment variable (set to any
// non-empty value to force the reference path, e.g. when bisecting a
// numerical question).
//
// A tier need not carry every kernel: an entry point switching on Isa lets
// a tier without its own variant fall through to the next narrower one
// (kAvx512 -> kAvx2), so a new tier never drops a kernel to the scalar
// path. The AVX-512 tier (AVX512F + AVX512VPOPCNTDQ) carries the batched
// correlator kernel (dsp/simd/xcorr.h) and the capture synthesis kernels
// (dsp/simd/synth.h), all of which AVX2 also has.
//
// The choice is made once per process and cached behind a function-local
// static; real-time callers resolve it once at construction rather than
// per call. Entry points that take an Isa accept any tier up to
// active_isa(), so tests can run every tier the host supports.
#pragma once

namespace rjf::dsp::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Widest ISA the process will use (cached after the first call).
[[nodiscard]] Isa active_isa() noexcept;

/// What this binary was compiled with (upper bound for active_isa()).
[[nodiscard]] Isa compiled_isa() noexcept;

/// Human-readable name, for bench/test output.
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

}  // namespace rjf::dsp::simd
