// The fdlibm tanh port (kernels/tanh.hpp) and its lanewise body.
//
// Every vector backend's tanh_map must equal the scalar port bit for bit.
// This is the fast leg: a strided sweep over all float bit patterns plus
// +-4 ulps around each branch boundary of tanhf and of the expm1f it calls,
// and the special values.  tanh_exhaustive_test.cpp covers all 2^32 inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "kernels/simd.hpp"
#include "kernels/tanh.hpp"

namespace easyscale::kernels {
namespace {

float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Inputs that reach every branch of tanhf and expm1f, both signs.
std::vector<float> boundary_inputs() {
  const float ln2 = std::numbers::ln2_v<float>;
  // tanhf's own thresholds on |x|.
  std::vector<float> edges = {0x1p-55f, 1.0f, 22.0f};
  // expm1f's thresholds on its argument a = +-2|x| (so |x| = a / 2): the
  // tiny return, the k = 0 / k = +-1 / general reductions, 27*ln2, and
  // the k = 23 and k = 57 switches of the exponent reconstruction.
  for (float a : {0x1p-25f, 0.5f * ln2, 1.5f * ln2, 27.0f * ln2, 22.5f * ln2,
                  56.5f * ln2}) {
    edges.push_back(a);
    edges.push_back(a / 2.0f);
  }
  std::vector<float> in;
  for (float e : edges) {
    for (int d = -4; d <= 4; ++d) {
      const float x = from_bits(bits(e) + static_cast<std::uint32_t>(d));
      in.push_back(x);
      in.push_back(-x);
    }
  }
  // Zeros, subnormals, the normal range ends, infinities and NaNs.
  for (std::uint32_t b : {0x00000000u, 0x00000001u, 0x00000002u, 0x00000003u,
                          0x00012345u, 0x007ffffeu, 0x007fffffu, 0x00800000u,
                          0x00800001u, 0x7f7fffffu, 0x7f800000u, 0x7f800001u,
                          0x7fa00000u, 0x7fc00000u, 0x7fc12345u,
                          0x7fffffffu}) {
    in.push_back(from_bits(b));
    in.push_back(from_bits(b | 0x80000000u));
  }
  return in;
}

/// A strided walk over every exponent and sign: about 66k patterns.
std::vector<float> strided_inputs() {
  std::vector<float> in;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 65521) {
    in.push_back(from_bits(static_cast<std::uint32_t>(b)));
  }
  return in;
}

void expect_lanewise_equals_port(const std::vector<float>& in,
                                 const char* what) {
  std::vector<float> ref(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = tanh_fdlibm(in[i]);
  for (SimdBackend backend : available_simd_backends()) {
    const SimdOps& ops = simd_ops(backend);
    if (ops.tanh_map == nullptr) continue;
    std::vector<float> got(in.size());
    ops.tanh_map(in.data(), got.data(), static_cast<std::int64_t>(in.size()));
    int reported = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (bits(got[i]) != bits(ref[i]) && reported++ < 8) {
        ADD_FAILURE() << what << " " << simd_backend_name(backend)
                      << ": tanh(" << std::hexfloat << in[i] << ") = "
                      << got[i] << ", port gives " << ref[i];
      }
    }
  }
}

TEST(TanhPort, LanewiseEqualsPortAroundEveryBranchBoundary) {
  expect_lanewise_equals_port(boundary_inputs(), "boundary");
}

TEST(TanhPort, LanewiseEqualsPortOnStridedSweep) {
  expect_lanewise_equals_port(strided_inputs(), "strided");
}

TEST(TanhPort, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits(tanh_fdlibm(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(tanh_fdlibm(-0.0f)), bits(-0.0f));
  EXPECT_EQ(tanh_fdlibm(inf), 1.0f);
  EXPECT_EQ(tanh_fdlibm(-inf), -1.0f);
  EXPECT_EQ(tanh_fdlibm(22.0f), 1.0f);
  EXPECT_EQ(tanh_fdlibm(-1e30f), -1.0f);
  EXPECT_TRUE(std::isnan(tanh_fdlibm(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(tanh_fdlibm(0x1p-60f), 0x1p-60f);
  EXPECT_EQ(tanh_fdlibm(from_bits(1)), from_bits(1));  // smallest subnormal
}

TEST(TanhPort, WithinThreeUlpsOfDoubleTanh) {
  // fdlibm tanhf is not correctly rounded: against the double-precision
  // tanh rounded to float it is off by up to 2 ulps on a dense sweep.  The
  // bound keeps one ulp for a host whose double tanh rounds differently;
  // a wrong constant or branch in the port misses by far more.
  std::vector<float> in = strided_inputs();
  const std::vector<float> edges = boundary_inputs();
  in.insert(in.end(), edges.begin(), edges.end());
  for (float x : in) {
    if (!std::isfinite(x)) continue;
    const float got = tanh_fdlibm(x);
    const float want = static_cast<float>(std::tanh(static_cast<double>(x)));
    const auto ulps = std::abs(static_cast<std::int64_t>(bits(got)) -
                               static_cast<std::int64_t>(bits(want)));
    ASSERT_LE(ulps, 3) << std::hexfloat << "x = " << x << ": " << got
                       << " vs " << want;
  }
}

}  // namespace
}  // namespace easyscale::kernels
