#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::tensor {
namespace {

TEST(Shape, NumelAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_THROW((void)s.dim(3), Error);
}

TEST(Shape, EmptyShapeIsScalarLike) {
  const Shape s{};
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.rank(), 0u);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), Error);
}

TEST(Tensor, ConstructZeroed) {
  Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(5), 6.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), Error);
}

TEST(Tensor, SerializationRoundTrip) {
  Tensor t(Shape{2, 2}, {1.5f, -2.0f, 0.25f, 100.0f});
  ByteWriter w;
  t.save(w);
  ByteReader r(w.bytes());
  const Tensor loaded = Tensor::load(r);
  EXPECT_EQ(loaded.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(loaded.at(i), t.at(i));
  }
}

TEST(LongTensor, Basics) {
  LongTensor t(Shape{4}, {7, -1, 0, 3});
  EXPECT_EQ(t.at(0), 7);
  ByteWriter w;
  t.save(w);
  ByteReader r(w.bytes());
  const LongTensor loaded = LongTensor::load(r);
  EXPECT_EQ(loaded.at(1), -1);
}

TEST(Ops, AddSubMul) {
  Tensor a(Shape{3}, {1, 2, 3}), b(Shape{3}, {10, 20, 30}), out(Shape{3});
  add(a, b, out);
  EXPECT_EQ(out.at(2), 33.0f);
  sub(b, a, out);
  EXPECT_EQ(out.at(0), 9.0f);
  mul(a, b, out);
  EXPECT_EQ(out.at(1), 40.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(Shape{3}), b(Shape{4}), out(Shape{3});
  EXPECT_THROW(add(a, b, out), Error);
}

TEST(Ops, AxpyInPlace) {
  Tensor a(Shape{2}, {1, 1}), b(Shape{2}, {2, 4});
  axpy_(a, 0.5f, b);
  EXPECT_EQ(a.at(0), 2.0f);
  EXPECT_EQ(a.at(1), 3.0f);
}

TEST(Ops, Transpose2d) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(0 * 2 + 1), 4.0f);
  EXPECT_EQ(t.at(2 * 2 + 0), 3.0f);
}

TEST(Ops, ArgmaxRowsTieBreaksLow) {
  Tensor a(Shape{2, 3}, {1, 3, 3, -5, -5, -7});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, SumSequentialMatchesLoop) {
  std::vector<float> v{0.1f, 0.2f, 0.3f, 0.4f};
  float acc = 0.0f;
  for (float x : v) acc += x;
  EXPECT_EQ(sum_sequential(v), acc);
}

TEST(Ops, L2NormAndMaxAbsDiff) {
  Tensor a(Shape{2}, {3, 4}), b(Shape{2}, {3, 5});
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
}

TEST(Ops, MaxValueEmptyThrows) {
  Tensor a(Shape{0});
  EXPECT_THROW((void)max_value(a), Error);
}

}  // namespace
}  // namespace easyscale::tensor
