// The repository's own single-precision tanh: a faithful port of fdlibm's
// tanhf and expm1f, the code glibc (2.36) runs for std::tanh(float).
//
// GELU's bits must not depend on which libm the host links, and the SIMD
// backends must reproduce the scalar result lane by lane.  So the scalar
// reference is this port, which uses only integer bit handling and IEEE
// add/sub/mul/div (no FMA: the tree builds with -ffp-contract=off), and
// simd_impl.hpp's tanh_lanes replays the same operations per lane.
// tests/tanh_exhaustive_test.cpp pins the two against each other on all
// 2^32 float inputs (docs/PARALLELISM.md, "Transcendentals").
#pragma once

namespace easyscale::kernels {

/// fdlibm's constants, shared by the scalar port and the lanewise body.
namespace fdlibm {
inline constexpr float kOne = 1.0f;
inline constexpr float kTwo = 2.0f;
inline constexpr float kHuge = 1.0e+30f;
inline constexpr float kTiny = 1.0e-30f;
inline constexpr float kOThreshold = 8.8721679688e+01f;  // 0x42b17180
inline constexpr float kLn2Hi = 6.9313812256e-01f;       // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06f;       // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00f;      // 0x3fb8aa3b
// Scaled coefficients of expm1f's rational approximation R(2z), z = x*x/2.
inline constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
inline constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
inline constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
inline constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
inline constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb
}  // namespace fdlibm

/// tanh(x) with fdlibm tanhf's exact operation sequence and constants.
[[nodiscard]] float tanh_fdlibm(float x);

}  // namespace easyscale::kernels
