#include "util/table.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "util/contract.hpp"

namespace ufc {

std::string fixed(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  std::string text = os.str();
  // A value that rounds to zero prints unsigned: the sign of rounding
  // residue (-1e-15) is noise, not a result.
  if (text.front() == '-' &&
      text.find_first_not_of("0.", 1) == std::string::npos)
    text.erase(0, 1);
  return text;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  UFC_EXPECTS(!header_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  UFC_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::add_row(const std::string& label,
                           const std::vector<double>& values, int precision) {
  UFC_EXPECTS(values.size() + 1 == header_.size());
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fixed(v, precision));
  add_row(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << " |\n";
  };
  emit(header_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void TablePrinter::print() const { std::cout << to_string(); }

}  // namespace ufc
