#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "math/matrix.hpp"
#include "util/contract.hpp"

namespace ufc {
namespace {

Mat make_counting(std::size_t rows, std::size_t cols) {
  Mat m(rows, cols);
  double v = 1.0;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = v++;
  return m;
}

TEST(Mat, ConstructionAndIndexing) {
  Mat m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.5);
  m(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(Mat, OutOfBoundsThrows) {
  Mat m(2, 2);
  EXPECT_THROW(m(2, 0), ContractViolation);
  EXPECT_THROW(m(0, 2), ContractViolation);
}

TEST(Mat, RowAndColumnExtraction) {
  const Mat m = make_counting(2, 3);  // [1 2 3; 4 5 6]
  const Vec r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 4.0);
  EXPECT_DOUBLE_EQ(r[2], 6.0);
  const Vec c = m.col(2);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 6.0);
}

TEST(Mat, SetRowAndColumn) {
  Mat m(2, 2);
  m.set_row(0, Vec{1.0, 2.0});
  m.set_col(1, Vec{7.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
}

TEST(Mat, SetRowSizeMismatchThrows) {
  Mat m(2, 2);
  EXPECT_THROW(m.set_row(0, Vec{1.0}), ContractViolation);
  EXPECT_THROW(m.set_col(0, Vec{1.0, 2.0, 3.0}), ContractViolation);
}

TEST(Mat, RowAndColumnSums) {
  const Mat m = make_counting(2, 3);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 6.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 15.0);
  EXPECT_DOUBLE_EQ(m.col_sum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.col_sum(2), 9.0);
}

TEST(Mat, ElementwiseArithmetic) {
  Mat a = make_counting(2, 2);
  Mat b = make_counting(2, 2);
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 8.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 0.5;
  EXPECT_DOUBLE_EQ(a(0, 0), 0.5);
}

TEST(Mat, ShapeMismatchThrows) {
  Mat a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, ContractViolation);
  EXPECT_THROW(max_abs_diff(a, b), ContractViolation);
}

TEST(Mat, NormsAndSum) {
  Mat m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
  EXPECT_DOUBLE_EQ(sum(m), -1.0);
  Mat z(1, 2, 0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(m, z), 4.0);
}

TEST(Mat, TransposeIntoSwapsIndices) {
  const Mat m = make_counting(2, 3);
  Mat t;
  m.transpose_into(t);
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) EXPECT_EQ(t(c, r), m(r, c));
}

TEST(Mat, TransposeIntoResizesMismatchedOutput) {
  const Mat m = make_counting(3, 2);
  Mat t(5, 7);  // wrong shape: must be re-shaped, not trip a contract
  m.transpose_into(t);
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 3u);
  EXPECT_EQ(t(1, 2), m(2, 1));
}

TEST(Mat, TransposeIntoRoundTripsAcrossBlockBoundary) {
  // 37x65 straddles the 32x32 tiling in both dimensions, covering the
  // partial edge tiles; a round trip must restore every entry bitwise.
  const Mat m = make_counting(37, 65);
  Mat t, back;
  m.transpose_into(t);
  t.transpose_into(back);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  EXPECT_EQ(max_abs_diff(back, m), 0.0);
}

TEST(Mat, TransposeIntoSelfAliasThrows) {
  Mat m = make_counting(2, 2);
  EXPECT_THROW(m.transpose_into(m), ContractViolation);
}

TEST(Mat, TransposeBlockIntoWritesOnlyItsBlock) {
  // The ADM-G datacenter pass moves column stripes in and out, one per
  // chunk: stripes that cover the matrix give the full transpose, and a
  // stripe leaves every entry outside its block as it was.
  const Mat m = make_counting(37, 65);
  Mat full;
  m.transpose_into(full);
  Mat striped(65, 37, -1.0);
  const std::pair<std::size_t, std::size_t> stripes[] = {
      {0, 20}, {20, 33}, {33, 65}};
  for (const auto& [begin, end] : stripes)
    m.transpose_block_into(striped, 0, 37, begin, end);
  EXPECT_EQ(max_abs_diff(striped, full), 0.0);

  Mat one(65, 37, -1.0);
  m.transpose_block_into(one, 5, 9, 40, 41);
  for (std::size_t r = 0; r < one.rows(); ++r)
    for (std::size_t c = 0; c < one.cols(); ++c) {
      const bool inside = r == 40 && c >= 5 && c < 9;
      EXPECT_EQ(one(r, c), inside ? m(c, r) : -1.0) << r << "," << c;
    }

  // And back: rows of the transpose into columns of the original.
  Mat back(37, 65, -1.0);
  full.transpose_block_into(back, 20, 33, 0, 37);
  for (std::size_t c = 20; c < 33; ++c)
    for (std::size_t r = 0; r < 37; ++r) EXPECT_EQ(back(r, c), m(r, c));
}

TEST(Mat, TransposeBlockIntoRejectsBadShapesAndRanges) {
  const Mat m = make_counting(3, 4);
  Mat wrong(3, 4);
  EXPECT_THROW(m.transpose_block_into(wrong, 0, 3, 0, 4), ContractViolation);
  Mat out(4, 3);
  EXPECT_THROW(m.transpose_block_into(out, 0, 4, 0, 4), ContractViolation);
  EXPECT_THROW(m.transpose_block_into(out, 2, 1, 0, 4), ContractViolation);
  EXPECT_THROW(m.transpose_block_into(out, 0, 3, 0, 5), ContractViolation);
  Mat self = make_counting(2, 2);
  EXPECT_THROW(self.transpose_block_into(self, 0, 2, 0, 2), ContractViolation);
}

}  // namespace
}  // namespace ufc
