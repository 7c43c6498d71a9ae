#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::rng {
namespace {

TEST(Philox, DeterministicForSeed) {
  Philox a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Philox, DifferentSeedsDiffer) {
  Philox a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Philox, StateRoundTripMidStream) {
  Philox a(7);
  for (int i = 0; i < 37; ++i) a.next_u32();  // odd offset into the buffer
  a.next_normal();                            // populate the spare
  const PhiloxState snapshot = a.state();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(a.next_normal());
  Philox b;
  b.set_state(snapshot);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(expected[static_cast<std::size_t>(i)], b.next_normal());
  }
}

TEST(Philox, StateSerializationRoundTrip) {
  Philox a(99);
  for (int i = 0; i < 11; ++i) a.next_float();
  ByteWriter w;
  a.state().save(w);
  ByteReader r(w.bytes());
  const PhiloxState restored = PhiloxState::load(r);
  EXPECT_EQ(restored, a.state());
}

TEST(Philox, UniformRange) {
  Philox gen(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = gen.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Philox, NextBelowBounds) {
  Philox gen(5);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(gen.next_below(bound), bound);
    }
  }
}

TEST(Philox, NextBelowZeroThrows) {
  Philox gen(5);
  EXPECT_THROW(gen.next_below(0), Error);
}

TEST(Philox, NormalMoments) {
  Philox gen(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = gen.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(PhiloxFill, MatchesRepeatedNextFloatFromEveryBufferPos) {
  // Every buffer_pos a state can hold: a fresh stream (empty buffer, no
  // block drawn yet), then block 0 with 0..4 of its words consumed.
  Philox warm(29);
  for (int i = 0; i < 4; ++i) (void)warm.next_u32();
  std::vector<PhiloxState> starts = {Philox(29).state()};
  for (std::uint32_t pos = 0; pos <= 4; ++pos) {
    PhiloxState s = warm.state();
    s.buffer_pos = pos;
    starts.push_back(s);
  }
  for (std::size_t si = 0; si < starts.size(); ++si) {
    for (std::int64_t n = 0; n <= 9; ++n) {
      Philox bulk;
      Philox single;
      bulk.set_state(starts[si]);
      single.set_state(starts[si]);
      std::vector<float> got(static_cast<std::size_t>(n) + 1, -1.0f);
      bulk.fill_floats(got.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        const float want = single.next_float();
        EXPECT_EQ(std::memcmp(&got[static_cast<std::size_t>(i)], &want,
                              sizeof(float)),
                  0)
            << "start " << si << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got.back(), -1.0f) << "wrote past n";
      EXPECT_TRUE(bulk.state() == single.state())
          << "start " << si << " n=" << n;
      EXPECT_EQ(bulk.next_u32(), single.next_u32());
    }
  }
}

TEST(PhiloxFill, LongFillMatchesRepeatedNextFloat) {
  Philox bulk(31);
  Philox single(31);
  (void)bulk.next_u32();
  (void)single.next_u32();
  std::vector<float> got(1001);
  bulk.fill_floats(got.data(), 1001);
  for (float g : got) ASSERT_EQ(g, single.next_float());
  EXPECT_TRUE(bulk.state() == single.state());
}

TEST(Sampling, PermutationIsValid) {
  Philox gen(13);
  for (std::size_t n : {1u, 2u, 17u, 256u}) {
    const auto p = permutation(gen, n);
    std::set<std::int64_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), n);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), static_cast<std::int64_t>(n) - 1);
  }
}

TEST(Sampling, PermutationDependsOnStream) {
  Philox a(1), b(2);
  EXPECT_NE(permutation(a, 64), permutation(b, 64));
}

TEST(StreamSet, StreamsAreIndependent) {
  StreamSet s;
  s.seed_all(42, 0);
  const auto v1 = s.stream(StreamKind::kPython).next_u32();
  const auto v2 = s.stream(StreamKind::kNumpy).next_u32();
  const auto v3 = s.stream(StreamKind::kTorch).next_u32();
  const auto v4 = s.stream(StreamKind::kCuda).next_u32();
  EXPECT_NE(v1, v2);
  EXPECT_NE(v2, v3);
  EXPECT_NE(v3, v4);
}

TEST(StreamSet, RanksDoNotShareStreams) {
  StreamSet a, b;
  a.seed_all(42, 0);
  b.seed_all(42, 1);
  EXPECT_NE(a.stream(StreamKind::kTorch).next_u32(),
            b.stream(StreamKind::kTorch).next_u32());
}

TEST(StreamSet, StateRoundTrip) {
  StreamSet s;
  s.seed_all(7, 3);
  s.stream(StreamKind::kTorch).next_normal();
  s.stream(StreamKind::kNumpy).next_u32();
  ByteWriter w;
  s.state().save(w);
  ByteReader r(w.bytes());
  StreamSet restored;
  restored.set_state(StreamSetState::load(r));
  EXPECT_EQ(restored.stream(StreamKind::kTorch).next_u64(),
            s.stream(StreamKind::kTorch).next_u64());
  EXPECT_EQ(restored.stream(StreamKind::kPython).next_u64(),
            s.stream(StreamKind::kPython).next_u64());
}

TEST(StreamSet, DeriveKeyAvalanches) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t rank = 0; rank < 64; ++rank) {
    for (std::uint64_t kind = 0; kind < 4; ++kind) {
      keys.insert(derive_stream_key(42, rank, kind));
    }
  }
  EXPECT_EQ(keys.size(), 256u);
}

/// Property sweep: state save/restore is exact at any draw offset.
class PhiloxOffsetTest : public ::testing::TestWithParam<int> {};

TEST_P(PhiloxOffsetTest, RestoreAtOffsetIsExact) {
  Philox a(123);
  for (int i = 0; i < GetParam(); ++i) a.next_u32();
  Philox b;
  b.set_state(a.state());
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a.next_u32(), b.next_u32());
}

INSTANTIATE_TEST_SUITE_P(Offsets, PhiloxOffsetTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 63, 64,
                                           65, 1023));

}  // namespace
}  // namespace easyscale::rng
