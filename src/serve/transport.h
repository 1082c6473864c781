/// \file transport.h
/// \brief Byte-level NDJSON transport primitives shared by the serve tier.
///
/// This file is the serve stack's bottom layer: buffered line framing over
/// POSIX fds, nothing protocol- or query-aware. Server (serve/server.h)
/// reads request lines with it and answers them through one QueryEngine
/// (serve/query_engine.h, the replay of Eq. 5 over bank rows); the
/// `--shard-procs` router (serve/router.h) reuses the same reader to speak
/// the unchanged NDJSON wire protocol to its replica processes.

#pragma once

#include <csignal>
#include <string>

namespace infoflow::serve {

/// \brief Buffered line reader over a POSIX fd.
class LineReader {
 public:
  /// When `interrupt` is non-null, blocking reads poll in short slices and
  /// treat `*interrupt != 0` as EOF — the serve daemon points this at its
  /// SIGTERM/SIGINT flag so a signal unwinds the loop instead of leaving it
  /// parked in read(2).
  explicit LineReader(int fd,
                      const volatile std::sig_atomic_t* interrupt = nullptr)
      : fd_(fd), interrupt_(interrupt) {}

  /// Blocking: pops the next line (without '\n'); false at EOF. A final
  /// unterminated line is still delivered.
  bool NextLine(std::string& line);

  /// Non-blocking: pops a line only if one is already buffered or the fd
  /// has readable data that completes one; false otherwise (never blocks
  /// past a single read of already-available bytes).
  bool TryNextLine(std::string& line);

  /// \brief Bounded-blocking: like NextLine but gives up once
  /// `deadline_ms` milliseconds (from the call) elapse without a complete
  /// line. Returns true with a line, or false with `timed_out` telling EOF
  /// (false) apart from deadline expiry (true) — the router's per-batch
  /// child deadline.
  bool NextLineWithin(std::string& line, double deadline_ms, bool& timed_out);

 private:
  bool PopBufferedLine(std::string& line);
  bool Readable() const;
  /// One read(2) into the buffer; flips eof_ at end-of-stream or error.
  void FillOnce();

  /// True when the interrupt flag (if any) has been raised.
  bool Interrupted() const { return interrupt_ != nullptr && *interrupt_ != 0; }

  int fd_;
  const volatile std::sig_atomic_t* interrupt_ = nullptr;
  std::string buffer_;
  bool eof_ = false;
};

/// Writes all of `data`, retrying partial writes; false on error.
bool WriteAll(int fd, const std::string& data);

}  // namespace infoflow::serve
