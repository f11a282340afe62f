#include "util/table.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace bac {

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string value) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add(double value, int digits) {
  return add(fmt_double(value, digits));
}

Table& Table::add(long long value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  if (!title.empty()) os << "== " << title << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      os << "  " << v;
      for (std::size_t pad = v.size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << "  ";
  for (std::size_t i = 2; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& r : rows_) print_row(r);
  os.flush();
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Table::write_csv: cannot open " + path);
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(cells[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
}

}  // namespace bac
