// Column-aligned plain-text table printer. Every bench binary reports its
// experiment as one or more of these tables (the reproduction's analogue of
// the paper's tables, which DSN 2001 did not include — see EXPERIMENTS.md).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace graybox {

/// Accumulates rows of string cells and renders them with aligned columns.
///
///   Table t({"n", "algorithm", "stabilization (ticks)"});
///   t.add_row({"5", "ricart-agrawala", "412 ± 37"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; short rows are padded with empty cells, long rows widen
  /// the table.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format heterogeneous cells (arithmetic -> decimal text).
  template <typename... Cells>
  void row(const Cells&... cells) {
    add_row({to_cell(cells)...});
  }

  std::size_t rows() const { return rows_.size(); }

  /// Render with a rule under the header, two-space column gutters.
  void print(std::ostream& os) const;

  /// Render to a string (used by tests).
  std::string to_string() const;

 private:
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(bool b) { return b ? "yes" : "no"; }
  template <typename T>
  static std::string to_cell(const T& v) {
    return std::to_string(v);
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace graybox
