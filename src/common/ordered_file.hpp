// Process-wide output file that concurrent runner points write to in
// declaration order: bench::JsonSink (NDJSON) and check::HashSink (state
// hashes) are both one. A point's worker installs a Capture, so what it
// emits lands in a per-point buffer that the runner's ordered commit then
// write()s; emits outside a Capture go straight to the file. Every write
// is flushed, so an aborted run keeps every completed line.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace apn {

/// `Tag` gives each derived sink its own thread-local point buffer.
template <typename Tag>
class OrderedFile {
 public:
  OrderedFile() = default;
  OrderedFile(const OrderedFile&) = delete;
  OrderedFile& operator=(const OrderedFile&) = delete;
  ~OrderedFile() { close(); }

  /// The process-wide sink.
  static Tag& global() {
    static Tag sink;
    return sink;
  }

  /// Open `path` for writing, closing any previous file; throws
  /// std::invalid_argument naming the path when it cannot be created.
  void open(const std::string& path) {
    close();
    out_ = std::fopen(path.c_str(), "w");
    if (out_ == nullptr)
      throw std::invalid_argument("cannot open " + path + " for writing: " +
                                  std::strerror(errno));
  }

  void close() {
    if (out_ != nullptr) std::fclose(out_);
    out_ = nullptr;
  }

  bool enabled() const { return out_ != nullptr; }

  /// Append to the calling thread's capture buffer, or write if none.
  void emit(std::string_view text) {
    if (buffer_ != nullptr)
      *buffer_ += text;
    else
      write(text);
  }

  /// Write and flush under the file lock.
  void write(std::string_view text) {
    if (out_ == nullptr || text.empty()) return;
    std::lock_guard<std::mutex> lk(mu_);
    std::fwrite(text.data(), 1, text.size(), out_);
    std::fflush(out_);
  }

  /// Routes this thread's emits into `buf` for the guard's lifetime.
  class Capture {
   public:
    explicit Capture(std::string& buf) : prev_(buffer_) { buffer_ = &buf; }
    ~Capture() { buffer_ = prev_; }
    Capture(const Capture&) = delete;
    Capture& operator=(const Capture&) = delete;

   private:
    std::string* prev_;
  };

 private:
  static inline thread_local std::string* buffer_ = nullptr;

  std::mutex mu_;
  std::FILE* out_ = nullptr;
};

}  // namespace apn
