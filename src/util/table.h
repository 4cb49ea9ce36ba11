// Aligned plain-text table printer for experiment reports.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace reqblock {

/// Collects rows of string cells and prints them column-aligned. Used by
/// `reproduce` for its paper-style tables and by the examples' reports.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; it may have fewer cells than the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with two-space column gaps and a dashed rule under the header.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace reqblock
