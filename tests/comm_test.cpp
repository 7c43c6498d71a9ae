#include <gtest/gtest.h>

#include <cmath>

#include "autograd/parameter.hpp"
#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/resilient.hpp"
#include "comm/ring.hpp"
#include "comm/shard.hpp"
#include "comm/transport.hpp"
#include "common/digest.hpp"
#include "rng/sampling.hpp"

namespace easyscale::comm {
namespace {

rng::Philox gen(777);

std::vector<float> random_vec(std::size_t n) {
  std::vector<float> v(n);
  rng::fill_normal(gen, v, 0.0f, 1.0f);
  return v;
}

TEST(RingChunks, CoverBufferExactly) {
  for (std::int64_t n : {0, 1, 7, 64, 100}) {
    for (std::int64_t world : {1, 2, 3, 4, 8}) {
      const auto chunks = ring_chunks(n, world);
      ASSERT_EQ(static_cast<std::int64_t>(chunks.size()), world);
      std::int64_t expected_offset = 0;
      for (const auto& c : chunks) {
        EXPECT_EQ(c.offset, expected_offset);
        expected_offset += c.length;
      }
      EXPECT_EQ(expected_offset, n);
    }
  }
}

TEST(RingAllreduce, SumIsCorrectWithinTolerance) {
  const std::size_t n = 257;
  std::vector<std::vector<float>> parts;
  for (int r = 0; r < 5; ++r) parts.push_back(random_vec(n));
  std::vector<std::span<const float>> views(parts.begin(), parts.end());
  std::vector<float> out(n);
  ring_allreduce_sum(views, out);
  for (std::size_t i = 0; i < n; ++i) {
    double ref = 0.0;
    for (const auto& p : parts) ref += p[i];
    EXPECT_NEAR(out[i], ref, 1e-4 * (1.0 + std::abs(ref)));
  }
}

TEST(RingAllreduce, MatchesManualRotationOrder) {
  // 4 participants, 8 elements -> chunks of 2; chunk c accumulates starting
  // at rank (c+1)%4.
  std::vector<std::vector<float>> parts;
  for (int r = 0; r < 4; ++r) parts.push_back(random_vec(8));
  std::vector<std::span<const float>> views(parts.begin(), parts.end());
  std::vector<float> out(8);
  ring_allreduce_sum(views, out);
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t i = 2 * c; i < 2 * c + 2; ++i) {
      float manual = parts[static_cast<std::size_t>((c + 1) % 4)]
                          [static_cast<std::size_t>(i)];
      for (std::int64_t s = 2; s <= 4; ++s) {
        manual += parts[static_cast<std::size_t>((c + s) % 4)]
                       [static_cast<std::size_t>(i)];
      }
      EXPECT_EQ(out[static_cast<std::size_t>(i)], manual);
    }
  }
}

TEST(RingAllreduce, WorldSizeChangesBits) {
  // The same 8 virtual gradients folded into different physical world
  // sizes produce different bits — the baseline elastic nondeterminism.
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < 8; ++r) grads.push_back(random_vec(4096));
  auto reduce_with_world = [&](std::size_t world) {
    std::vector<std::vector<float>> parts(world,
                                          std::vector<float>(4096, 0.0f));
    for (std::size_t v = 0; v < grads.size(); ++v) {
      for (std::size_t i = 0; i < 4096; ++i) {
        parts[v % world][i] += grads[v][i];
      }
    }
    std::vector<std::span<const float>> views(parts.begin(), parts.end());
    std::vector<float> out(4096);
    ring_allreduce_sum(views, out);
    return digest_floats(out);
  };
  EXPECT_NE(reduce_with_world(2), reduce_with_world(4));
  EXPECT_NE(reduce_with_world(4), reduce_with_world(8));
}

TEST(RingAllreduce, DeterministicAcrossCalls) {
  std::vector<std::vector<float>> parts;
  for (int r = 0; r < 3; ++r) parts.push_back(random_vec(100));
  std::vector<std::span<const float>> views(parts.begin(), parts.end());
  std::vector<float> a(100), b(100);
  ring_allreduce_sum(views, a);
  ring_allreduce_sum(views, b);
  EXPECT_EQ(digest_floats(a), digest_floats(b));
}

TEST(OrderedFold, LeftToRightAssociation) {
  std::vector<float> p0{0.1f}, p1{0.2f}, p2{0.3f};
  std::vector<std::span<const float>> views{p0, p1, p2};
  std::vector<float> out(1);
  ordered_fold_sum(views, out);
  EXPECT_EQ(out[0], (0.1f + 0.2f) + 0.3f);
}

autograd::ParameterStore make_store(std::vector<autograd::Parameter>& params) {
  autograd::ParameterStore store;
  for (auto& p : params) store.register_parameter(&p);
  return store;
}

TEST(BucketManager, InitialLayoutIsReverseRegistration) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("a", tensor::Shape{4});
  params.emplace_back("b", tensor::Shape{4});
  params.emplace_back("c", tensor::Shape{4});
  auto store = make_store(params);
  BucketManager mgr(store, /*cap_bytes=*/1 << 20);  // everything in 1 bucket
  const auto layout = mgr.initial_layout();
  ASSERT_EQ(layout.num_buckets(), 1u);
  EXPECT_EQ(layout.buckets[0], (std::vector<int>{2, 1, 0}));
}

TEST(BucketManager, CapacitySplitsBuckets) {
  std::vector<autograd::Parameter> params;
  for (int i = 0; i < 6; ++i) {
    params.emplace_back("p" + std::to_string(i), tensor::Shape{8});  // 32 B
  }
  auto store = make_store(params);
  BucketManager mgr(store, /*cap_bytes=*/64);  // 2 params per bucket
  const auto layout = mgr.initial_layout();
  EXPECT_EQ(layout.num_buckets(), 3u);
  for (const auto& b : layout.buckets) EXPECT_EQ(b.size(), 2u);
}

TEST(BucketManager, OversizedParamGetsOwnBucket) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("big", tensor::Shape{100});
  params.emplace_back("small", tensor::Shape{2});
  auto store = make_store(params);
  BucketManager mgr(store, 16);
  const auto layout = mgr.initial_layout();
  EXPECT_EQ(layout.num_buckets(), 2u);
}

TEST(BucketManager, RebuildFollowsReadyOrder) {
  std::vector<autograd::Parameter> params;
  for (int i = 0; i < 4; ++i) {
    params.emplace_back("p" + std::to_string(i), tensor::Shape{4});
  }
  auto store = make_store(params);
  BucketManager mgr(store, 1 << 20);
  const auto layout = mgr.layout_from_ready_order({2, 0, 3, 1});
  ASSERT_EQ(layout.num_buckets(), 1u);
  EXPECT_EQ(layout.buckets[0], (std::vector<int>{2, 0, 3, 1}));
}

TEST(BucketManager, IncompleteReadyOrderThrows) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("a", tensor::Shape{4});
  params.emplace_back("b", tensor::Shape{4});
  auto store = make_store(params);
  BucketManager mgr(store, 1 << 20);
  EXPECT_THROW(mgr.layout_from_ready_order({0}), Error);
}

TEST(BucketLayout, SerializationRoundTrip) {
  BucketLayout layout;
  layout.buckets = {{3, 1}, {0}, {2, 4, 5}};
  ByteWriter w;
  layout.save(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(BucketLayout::load(r), layout);
}

TEST(AllreduceAverage, AllPartsEndIdentical) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{10});
  params.emplace_back("b", tensor::Shape{3});
  auto store = make_store(params);
  BucketManager mgr(store, 1 << 20);
  const auto layout = mgr.initial_layout();
  std::vector<GradientSet> sets;
  for (int r = 0; r < 4; ++r) {
    auto s = GradientSet::zeros_like(store);
    for (auto& g : s.grads) rng::fill_normal(gen, g.data(), 0.0f, 1.0f);
    sets.push_back(std::move(s));
  }
  // Keep a copy for the average check.
  const auto copies = sets;
  std::vector<GradientSet*> parts;
  for (auto& s : sets) parts.push_back(&s);
  allreduce_average(layout, parts);
  for (int r = 1; r < 4; ++r) {
    for (std::size_t p = 0; p < sets[0].grads.size(); ++p) {
      EXPECT_EQ(digest_floats(sets[0].grads[p].data()),
                digest_floats(sets[static_cast<std::size_t>(r)].grads[p].data()));
    }
  }
  for (std::size_t p = 0; p < sets[0].grads.size(); ++p) {
    for (std::int64_t i = 0; i < sets[0].grads[p].numel(); ++i) {
      double ref = 0.0;
      for (const auto& c : copies) ref += c.grads[p].at(i);
      EXPECT_NEAR(sets[0].grads[p].at(i), ref / 4.0, 1e-5);
    }
  }
}

TEST(AllreduceAverage, LayoutChangesBitsOnIdenticalInputs) {
  std::vector<autograd::Parameter> params;
  for (int i = 0; i < 8; ++i) {
    params.emplace_back("p" + std::to_string(i), tensor::Shape{97});
  }
  auto store = make_store(params);
  BucketManager mgr(store, 1024);
  const auto init = mgr.initial_layout();
  const auto rebuilt = mgr.layout_from_ready_order({0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_NE(init, rebuilt);
  std::vector<GradientSet> base;
  for (int r = 0; r < 4; ++r) {
    auto s = GradientSet::zeros_like(store);
    for (auto& g : s.grads) rng::fill_normal(gen, g.data(), 0.0f, 1.0f);
    base.push_back(std::move(s));
  }
  auto run = [&](const BucketLayout& layout) {
    auto copy = base;
    std::vector<GradientSet*> parts;
    for (auto& s : copy) parts.push_back(&s);
    allreduce_average(layout, parts);
    Digest d;
    for (const auto& g : copy[0].grads) d.update(g.data());
    return d.value();
  };
  EXPECT_NE(run(init), run(rebuilt));
}

TEST(AllreduceAverage, WorldSizeOneIsIdentity) {
  // Degenerate group: a single participant averages with itself and must
  // come out bitwise untouched.
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{33});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  auto s = GradientSet::zeros_like(store);
  rng::fill_normal(gen, s.grads[0].data(), 0.0f, 1.0f);
  const auto before = digest_floats(s.grads[0].data());
  std::vector<GradientSet*> parts{&s};
  allreduce_average(layout, parts);
  EXPECT_EQ(digest_floats(s.grads[0].data()), before);
}

TEST(AllreduceAverage, TwoParticipantRingMatchesManualOrder) {
  // Smallest non-trivial ring: chunk c accumulates starting at rank
  // (c+1)%2, so element-wise the sum is parts[(c+1)%2] + parts[c%2] in
  // that exact order.
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{8});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  std::vector<GradientSet> sets;
  for (int r = 0; r < 2; ++r) {
    auto s = GradientSet::zeros_like(store);
    rng::fill_normal(gen, s.grads[0].data(), 0.0f, 1.0f);
    sets.push_back(std::move(s));
  }
  const auto copies = sets;
  std::vector<GradientSet*> parts{&sets[0], &sets[1]};
  allreduce_average(layout, parts);
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t i = 4 * c; i < 4 * (c + 1); ++i) {
      const float manual =
          (copies[static_cast<std::size_t>((c + 1) % 2)].grads[0].at(i) +
           copies[static_cast<std::size_t>(c % 2)].grads[0].at(i)) /
          2.0f;
      EXPECT_EQ(sets[0].grads[0].at(i), manual);
      EXPECT_EQ(sets[1].grads[0].at(i), manual);
    }
  }
}

TEST(AllreduceAverage, DuplicatePartPointersAreHarmless) {
  // The same participant listed twice: averaging x with itself must give
  // x back (2x/2 is exact in binary floating point).
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{16});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  auto s = GradientSet::zeros_like(store);
  rng::fill_normal(gen, s.grads[0].data(), 0.0f, 1.0f);
  const auto before = digest_floats(s.grads[0].data());
  std::vector<GradientSet*> parts{&s, &s};
  allreduce_average(layout, parts);
  EXPECT_EQ(digest_floats(s.grads[0].data()), before);
}

TEST(AllreduceValidation, RejectsEmptyParts) {
  BucketLayout layout;
  std::vector<GradientSet*> parts;
  EXPECT_THROW(allreduce_average(layout, parts), Error);
}

TEST(AllreduceValidation, RejectsNullPart) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{4});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  auto s = GradientSet::zeros_like(store);
  std::vector<GradientSet*> parts{&s, nullptr};
  EXPECT_THROW(allreduce_average(layout, parts), Error);
}

TEST(AllreduceValidation, RejectsRaggedGradientCounts) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{4});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  auto a = GradientSet::zeros_like(store);
  auto b = GradientSet::zeros_like(store);
  b.grads.emplace_back(tensor::Shape{4});  // one gradient too many
  std::vector<GradientSet*> parts{&a, &b};
  EXPECT_THROW(allreduce_average(layout, parts), Error);
}

TEST(AllreduceValidation, RejectsShapeDisagreementAcrossParts) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{6});
  auto store = make_store(params);
  const auto layout = BucketManager(store, 1 << 20).initial_layout();
  auto a = GradientSet::zeros_like(store);
  auto b = GradientSet::zeros_like(store);
  b.grads[0] = tensor::Tensor(tensor::Shape{7});  // disagrees with part 0
  std::vector<GradientSet*> parts{&a, &b};
  EXPECT_THROW(allreduce_average(layout, parts), Error);
}

TEST(AllreduceValidation, RejectsBucketIdsOutsideGradientRange) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{4});
  auto store = make_store(params);
  auto s0 = GradientSet::zeros_like(store);
  auto s1 = GradientSet::zeros_like(store);
  std::vector<GradientSet*> parts{&s0, &s1};
  const std::vector<ShardSlices> owned(2, ShardSlices{{0, 0, 4}});
  BucketLayout out_of_range;
  out_of_range.buckets = {{0, 1}};  // gradient 1 does not exist
  BucketLayout duplicated;
  duplicated.buckets = {{0}, {0}};  // gradient 0 reduced twice
  // The resilient collectives validate before anything touches the fabric:
  // a rejected layout leaves the transport's counters and clock untouched.
  SimTransport transport(2, TransportConfig{});
  MembershipMonitor monitor(2, TransportConfig{});
  ResilientConfig rcfg;
  rcfg.on_death = DeathPolicy::kAbort;
  const TransportStats before = transport.stats();
  for (const BucketLayout* layout : {&out_of_range, &duplicated}) {
    EXPECT_THROW(allreduce_average(*layout, parts), Error);
    EXPECT_THROW(
        resilient_allreduce_average(*layout, parts, transport, monitor, rcfg),
        Error);
    EXPECT_THROW(resilient_reduce_scatter_average(*layout, parts, owned,
                                                  transport, monitor, rcfg),
                 Error);
    const TransportStats& after = transport.stats();
    EXPECT_EQ(after.collectives, before.collectives);
    EXPECT_EQ(after.messages_sent, before.messages_sent);
    EXPECT_EQ(after.bytes_sent, before.bytes_sent);
    EXPECT_EQ(after.virtual_time_s, before.virtual_time_s);
  }
}

TEST(GradientSet, StoreRoundTripAndBytes) {
  std::vector<autograd::Parameter> params;
  params.emplace_back("w", tensor::Shape{5});
  auto store = make_store(params);
  params[0].grad.fill(2.0f);
  auto set = GradientSet::from_store(store);
  EXPECT_EQ(set.grads[0].at(0), 2.0f);
  EXPECT_EQ(gradient_bytes(set), 20);
  set.grads[0].fill(3.0f);
  set.to_store(store);
  EXPECT_EQ(params[0].grad.at(4), 3.0f);
  ByteWriter w;
  set.save(w);
  ByteReader r(w.bytes());
  const auto loaded = GradientSet::load(r);
  EXPECT_EQ(loaded.grads[0].at(0), 3.0f);
}

}  // namespace
}  // namespace easyscale::comm
