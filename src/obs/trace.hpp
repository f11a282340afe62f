// Structured JSONL tracing: a thread-safe TraceWriter plus RAII Span
// scopes, behind a near-zero-cost disabled path.
//
// Every call site holds an `obs::TraceWriter*` that is nullptr when
// tracing is off; the disabled path is a single pointer test (Span's
// constructor does not even copy its name). When enabled, each event is
// one JSON object per line:
//
//   {"ts_ms": <ms since writer creation>, "seq": <total order>,
//    "ev": "<type>", "name": "<who>", ...numeric/string fields...}
//
// Event types emitted by the wired layers: span_begin/span_end,
// progress (fuzz campaigns), cell_begin/cell_end (sweep cells), and
// free-form `event`. Spans attach their counters to the *end* event
// along with dur_ms.
//
// Determinism contract: ts_ms/dur_ms are steady-clock wall time — trace
// files are observability artifacts and are never checksummed or diffed
// byte-for-byte; everything that must be thread-count invariant lives in
// metrics counters instead (see metrics.hpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace bac::obs {

/// One trace event, built up before emission. `num` keeps insertion
/// order; writers serialize fields exactly as added.
struct TraceEvent {
  std::string type;
  std::string name;
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> strs;

  TraceEvent& num(std::string_view key, double v) {
    nums.emplace_back(std::string(key), v);
    return *this;
  }
  TraceEvent& str(std::string_view key, std::string_view v) {
    strs.emplace_back(std::string(key), std::string(v));
    return *this;
  }
};

/// Appends JSONL events to a file; safe to share across threads (one
/// internal mutex serializes writes and the seq counter).
class TraceWriter {
 public:
  /// Throws std::runtime_error when `path` cannot be opened.
  explicit TraceWriter(const std::string& path);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Emit one event (ts_ms and seq are stamped here).
  void emit(const TraceEvent& e);
  /// Convenience for field-free events.
  void emit(std::string_view type, std::string_view name);

  /// Milliseconds since the writer was created (steady clock).
  [[nodiscard]] double elapsed_ms() const { return clock_.millis(); }

 private:
  Stopwatch clock_;
  mutable Mutex mutex_;
  std::ofstream os_ GUARDED_BY(mutex_);
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
};

/// RAII scope: emits `span_begin` at construction and `span_end` (with
/// dur_ms plus any attached fields) at end()/destruction. With a null
/// writer every method is a pointer test and nothing else.
class Span {
 public:
  Span(TraceWriter* writer, std::string_view name);
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a counter/field to the end event (boundary counters).
  void num(std::string_view key, double v) {
    if (writer_) end_.num(key, v);
  }
  void str(std::string_view key, std::string_view v) {
    if (writer_) end_.str(key, v);
  }
  /// Emit the end event now (idempotent; the destructor is then a no-op).
  void end();

 private:
  TraceWriter* writer_;
  double t0_ms_ = 0.0;
  TraceEvent end_;  ///< populated only when writer_ != nullptr
};

}  // namespace bac::obs
