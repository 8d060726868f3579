#include "common/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace graybox {
namespace {

// Display width ignoring UTF-8 continuation bytes (we emit "±" in stats
// cells); good enough for the characters this library prints.
std::size_t display_width(const std::string& s) {
  std::size_t w = 0;
  for (unsigned char c : s) {
    if ((c & 0xc0) != 0x80) ++w;
  }
  return w;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::size_t columns = header_.size();
  for (const auto& row : rows_) columns = std::max(columns, row.size());

  std::vector<std::size_t> widths(columns, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], display_width(row[i]));
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < columns; ++i) {
      const std::string cell = i < row.size() ? row[i] : std::string{};
      os << cell;
      if (i + 1 < columns)
        os << std::string(widths[i] - display_width(cell) + 2, ' ');
    }
    os << '\n';
  };

  emit(header_);
  std::size_t rule = 0;
  for (std::size_t i = 0; i < columns; ++i) rule += widths[i] + (i + 1 < columns ? 2 : 0);
  os << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

}  // namespace graybox
