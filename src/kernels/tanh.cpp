// fdlibm tanhf / expm1f (Sun Microsystems, via glibc sysdeps/ieee754/
// flt-32), ported operation for operation.  The only departures are ones
// that cannot change a returned bit: floating-point exception flags and
// errno are not raised, and the exponent arithmetic runs in uint32_t so a
// negative k shifts without undefined behaviour.
#include "kernels/tanh.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace easyscale::kernels {

namespace {

using namespace fdlibm;

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

/// y * 2^k by adding k to y's biased exponent (no range checks: every
/// caller keeps the result finite and normal).
float add_exponent(float y, std::int32_t k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

float expm1_fdlibm(float x) {
  std::uint32_t hx = bits(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27*ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return negative ? -1.0f : x;
      if (x > kOThreshold) return kHuge * kHuge;  // overflow
    }
    if (negative) return kTiny - kOne;  // x < -27*ln2: -1
  }

  // Argument reduction: x = k*ln2 + r with |r| <= 0.5*ln2, r = hi - lo
  // and c the rounding error of that subtraction.
  float hi = 0.0f;
  float lo = 0.0f;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {    // |x| > 0.5*ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5*ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: return x
    const float t = kHuge + x;
    return x - (t - kHuge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // suffices to return exp(x) - 1
    const float y = kOne - (e - x);
    return add_exponent(y, k) - kOne;
  }
  float y;
  if (k < 23) {
    t = from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += kOne;
  }
  return add_exponent(y, k);
}

}  // namespace

float tanh_fdlibm(float x) {
  const std::uint32_t jx = bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }

  float z;
  if (ix < 0x41b00000u) {  // |x| < 22
    if (ix == 0) return x;                      // +-0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                    // |x| >= 1
      const float t = expm1_fdlibm(kTwo * std::fabs(x));
      z = kOne - kTwo / (t + kTwo);
    } else {
      const float t = expm1_fdlibm(-kTwo * std::fabs(x));
      z = -t / (t + kTwo);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

}  // namespace easyscale::kernels
