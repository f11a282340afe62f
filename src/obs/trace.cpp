#include "obs/trace.hpp"

#include <stdexcept>

#include "util/json.hpp"

namespace bac::obs {

TraceWriter::TraceWriter(const std::string& path) : os_(path) {
  MutexLock lock(mutex_);
  if (!os_) throw std::runtime_error("cannot open trace file: " + path);
  os_.precision(17);
}

void TraceWriter::emit(const TraceEvent& e) {
  const double ts = clock_.millis();
  MutexLock lock(mutex_);
  os_ << "{\"ts_ms\": " << ts << ", \"seq\": " << seq_++ << ", \"ev\": ";
  write_json_string(os_, e.type);
  os_ << ", \"name\": ";
  write_json_string(os_, e.name);
  for (const auto& [key, v] : e.nums) {
    os_ << ", ";
    write_json_string(os_, key);
    os_ << ": ";
    write_json_number(os_, v);
  }
  for (const auto& [key, v] : e.strs) {
    os_ << ", ";
    write_json_string(os_, key);
    os_ << ": ";
    write_json_string(os_, v);
  }
  os_ << "}\n";
}

void TraceWriter::emit(std::string_view type, std::string_view name) {
  TraceEvent e;
  e.type = std::string(type);
  e.name = std::string(name);
  emit(e);
}

Span::Span(TraceWriter* writer, std::string_view name) : writer_(writer) {
  if (!writer_) return;
  t0_ms_ = writer_->elapsed_ms();
  TraceEvent begin;
  begin.type = "span_begin";
  begin.name = std::string(name);
  writer_->emit(begin);
  end_.type = "span_end";
  end_.name = begin.name;
}

void Span::end() {
  if (!writer_) return;
  TraceEvent e = std::move(end_);
  // dur_ms leads the field list so readers find it without scanning.
  e.nums.insert(e.nums.begin(), {"dur_ms", writer_->elapsed_ms() - t0_ms_});
  TraceWriter* w = writer_;
  writer_ = nullptr;
  w->emit(e);
}

}  // namespace bac::obs
