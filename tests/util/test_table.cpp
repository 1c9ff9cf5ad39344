#include <gtest/gtest.h>

#include "util/contract.hpp"
#include "util/table.hpp"

namespace ufc {
namespace {

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter table({"Strategy", "Cost"});
  table.add_row({"Grid", "9644"});
  table.add_row({"Fuel Cell", "27957"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| Strategy  | Cost  |"), std::string::npos);
  EXPECT_NE(out.find("| Grid      | 9644  |"), std::string::npos);
  EXPECT_NE(out.find("| Fuel Cell | 27957 |"), std::string::npos);
}

TEST(TablePrinter, NumericRowFormatsWithPrecision) {
  TablePrinter table({"name", "x", "y"});
  table.add_row("row", {1.23456, -2.0}, 2);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("-2.00"), std::string::npos);
}

TEST(TablePrinter, RowWidthMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(table.add_row("label", {1.0, 2.0}), ContractViolation);
}

TEST(TablePrinter, EmptyHeaderThrows) {
  EXPECT_THROW(TablePrinter({}), ContractViolation);
}

TEST(Fixed, FormatsDecimals) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.0, 0), "-1");
  EXPECT_EQ(fixed(2.5, 3), "2.500");
}

TEST(Fixed, RoundsResidueToUnsignedZero) {
  // Rounding residue of a solve must not print as "-0.00".
  EXPECT_EQ(fixed(-1e-12, 2), "0.00");
  EXPECT_EQ(fixed(-0.004, 2), "0.00");
  EXPECT_EQ(fixed(-0.006, 2), "-0.01");
  EXPECT_EQ(fixed(-0.0, 0), "0");
  EXPECT_EQ(fixed(-0.4, 0), "0");
  EXPECT_EQ(fixed(-10.0, 0), "-10");
}

}  // namespace
}  // namespace ufc
