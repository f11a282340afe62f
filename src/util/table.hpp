// Aligned ASCII tables + CSV output for the benchmark harness.
//
// Benchmarks regenerate paper-style result tables; this tiny reporting layer
// prints them aligned on stdout and can mirror them to CSV files so results
// can be post-processed (e.g. plotted) without re-running.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace bac {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Begin a new row; values are appended with `add`.
  Table& row();
  Table& add(std::string value);
  Table& add(double value, int digits = 3);
  Table& add(long long value);
  Table& add(int value) { return add(static_cast<long long>(value)); }
  Table& add(std::size_t value) { return add(static_cast<long long>(value)); }

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  /// Print with aligned columns, a header rule, and an optional title.
  void print(std::ostream& os, const std::string& title = "") const;

  /// Write RFC-4180-ish CSV (quotes only when necessary).
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bac
