// Transparent decompression for MRT archives and cold journal segments.
//
// Archived RouteViews/RIS windows ship gzip'd (updates) or bzip2'd (RIB
// snapshots), and sealed journal segments may be stored gzip'd. This
// layer makes compression a transport detail: one push-mode decompressor
// serves every transport — the ingest supervisor's HTTP body one socket
// read at a time, a file on disk one bounded read at a time
// (decompress_file) — streaming, no temp files, O(chunk) resident
// memory. Compression is sniffed from magic bytes, never file extensions
// (mirrors on object stores rename freely).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace artemis::mrt {

enum class Compression : std::uint8_t { kNone, kGzip, kBzip2 };

/// Sniffs the leading magic bytes (gzip 1f 8b, bzip2 "BZh" + block-size
/// digit).
Compression sniff_compression(std::span<const std::uint8_t> head);

/// Push-mode decompression: the transport delivers bytes to us. A torn
/// or corrupt compressed stream is NOT an exception. The
/// already-recovered prefix has been delivered to `out`, truncated() is
/// set, and further input is ignored — the MRT record layer then treats
/// the tail exactly like an interrupted download of an uncompressed file,
/// and each caller applies its own tear policy.
class ChunkDecompressor {
 public:
  using Output = std::function<void(std::span<const std::uint8_t>)>;

  virtual ~ChunkDecompressor() = default;

  /// Pushes transport bytes; delivers decompressed bytes to `out` (zero
  /// or more calls; the identity codec forwards the span unchanged).
  /// Returns false once the stream has torn.
  virtual bool feed(std::span<const std::uint8_t> in, const Output& out) = 0;

  /// Signals end of transport. A stream cut mid-member tears here;
  /// trailing non-member bytes after a complete member are ignored, like
  /// gzip(1). Idempotent.
  virtual void finish(const Output& out) = 0;

  /// Rearms for a new stream of the same compression kind, so a
  /// long-running ingest loop reuses one decompressor (and its buffers)
  /// per source instead of allocating per fetch.
  virtual void reset() = 0;

  bool truncated() const { return truncated_; }
  const std::string& error() const { return error_; }

 protected:
  bool truncated_ = false;
  std::string error_;  ///< non-empty iff truncated(): what tore
};

/// Throws std::runtime_error for a compression whose library this binary
/// was built without.
std::unique_ptr<ChunkDecompressor> make_chunk_decompressor(Compression compression);

/// Streams the file at `path` through a decompressor for its sniffed
/// compression (kNone forwards the bytes unchanged) and delivers the
/// plaintext to `out`. The file is fed in bounded reads — zlib's
/// avail_in is 32-bit, so one multi-GiB span would wrap — and never held
/// whole in memory. Returns the tear description: empty when the stream
/// is complete, else what tore (the recovered prefix has already been
/// delivered). Throws std::runtime_error when the file cannot be opened
/// or read, or needs a codec this build lacks.
std::string decompress_file(const std::string& path,
                            const ChunkDecompressor::Output& out);

#ifdef ARTEMIS_HAVE_ZLIB
/// Deterministic single-member gzip (mtime 0, no name: the output
/// depends only on the input bytes, the level and the zlib version).
/// Fixture tooling and the journal's cold-segment archiver.
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> in,
                                        int level = 9);
#endif

}  // namespace artemis::mrt
