#include "mrt/stream_reader.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#ifdef ARTEMIS_HAVE_ZLIB
#include <zlib.h>
#endif
#ifdef ARTEMIS_HAVE_BZIP2
#include <bzlib.h>
#endif

namespace artemis::mrt {

Compression sniff_compression(std::span<const std::uint8_t> head) {
  if (head.size() >= 2 && head[0] == 0x1F && head[1] == 0x8B) return Compression::kGzip;
  // "BZh" plus the block-size digit: a bare 3-byte check would
  // misclassify a raw MRT file whose first timestamp is 0x425A68xx.
  if (head.size() >= 4 && head[0] == 'B' && head[1] == 'Z' && head[2] == 'h' &&
      head[3] >= '1' && head[3] <= '9') {
    return Compression::kBzip2;
  }
  return Compression::kNone;
}

namespace {

/// Decompressed-output buffer of the codec decoders.
constexpr std::size_t kCompressedChunk = 256 * 1024;
/// One bounded read of decompress_file.
constexpr std::size_t kFileChunk = 1 << 20;

// -------------------------------------------------- push-mode decompression

/// kNone: transport bytes ARE the payload; forward the span untouched.
class IdentityChunk final : public ChunkDecompressor {
 public:
  bool feed(std::span<const std::uint8_t> in, const Output& out) override {
    if (!in.empty()) out(in);
    return true;
  }
  void finish(const Output&) override {}
  void reset() override {}
};

/// Shared shape of the zlib/bz2 push decoders: a persistent codec stream
/// fed directly from the caller's chunk, draining into one reusable
/// output buffer; member/stream boundaries may straddle chunks, so up to
/// magic-length bytes are carried while deciding "next member or
/// trailing garbage". Tears set a flag, never throw; the two decoders
/// only differ in the codec calls.
template <typename Derived>
class CodecChunkBase : public ChunkDecompressor {
 public:
  CodecChunkBase() : out_buf_(kCompressedChunk) {}

  bool feed(std::span<const std::uint8_t> in, const Output& out) override {
    std::size_t pos = 0;
    while (pos < in.size() && !done_) {
      if (boundary_len_ > 0 || at_boundary_) {
        // Between members: accumulate magic-length bytes to decide.
        while (boundary_len_ < Derived::kMagicLen && pos < in.size()) {
          boundary_carry_[boundary_len_++] = in[pos++];
        }
        if (boundary_len_ < Derived::kMagicLen) return !done_;
        if (!Derived::is_magic(boundary_carry_)) {
          done_ = true;  // trailing non-member bytes: ignored, clean end
          return false;
        }
        if (!self().restart()) {
          tear(Derived::kResetError);
          return false;
        }
        at_boundary_ = false;
        // Replay the carried magic through the fresh stream (codec
        // streams accept arbitrarily partial input).
        const std::size_t len = boundary_len_;
        boundary_len_ = 0;
        decode({boundary_carry_, len}, out);
        continue;
      }
      pos += decode(in.subspan(pos), out);
    }
    return !done_;
  }

  void finish(const Output&) override {
    if (done_) return;
    if (at_boundary_ || boundary_len_ > 0) {
      // Ended while sniffing a possible next member: whatever those
      // bytes were, a complete member already finished — clean end.
      done_ = true;
      return;
    }
    if (self().mid_member()) {
      tear(Derived::kTruncatedError);
    }
    done_ = true;
  }

  void reset() override {
    if (!self().restart()) throw std::runtime_error(Derived::kResetError);
    truncated_ = false;
    error_.clear();
    done_ = false;
    at_boundary_ = false;
    boundary_len_ = 0;
  }

 protected:
  /// Runs the codec over `in`, emitting to `out`; returns bytes consumed.
  /// Sets at_boundary_ at member end, done_/tear on corruption.
  std::size_t decode(std::span<const std::uint8_t> in, const Output& out) {
    return self().decode_impl(in, out);
  }

  void tear(const char* what) {
    truncated_ = true;
    error_ = what;
    done_ = true;
  }

  Derived& self() { return static_cast<Derived&>(*this); }

  std::vector<std::uint8_t> out_buf_;
  std::uint8_t boundary_carry_[4] = {};
  std::size_t boundary_len_ = 0;
  bool at_boundary_ = false;
  bool done_ = false;
};

#ifdef ARTEMIS_HAVE_ZLIB
class GzipChunk final : public CodecChunkBase<GzipChunk> {
 public:
  static constexpr std::size_t kMagicLen = 2;
  static constexpr const char* kResetError = "gzip member reset failed";
  static constexpr const char* kTruncatedError = "gzip stream truncated";

  GzipChunk() {
    zs_.zalloc = Z_NULL;
    zs_.zfree = Z_NULL;
    zs_.opaque = Z_NULL;
    if (inflateInit2(&zs_, 15 + 32) != Z_OK) {
      throw std::runtime_error("inflateInit failed");
    }
  }
  ~GzipChunk() override { inflateEnd(&zs_); }

  static bool is_magic(const std::uint8_t* p) { return p[0] == 0x1F && p[1] == 0x8B; }

  bool restart() { return inflateReset(&zs_) == Z_OK; }

  /// Mid-member iff inflate has consumed header bytes since the last
  /// member end and not reached the next one.
  bool mid_member() const { return started_; }

  std::size_t decode_impl(std::span<const std::uint8_t> in, const Output& out) {
    zs_.next_in = const_cast<Bytef*>(in.data());
    zs_.avail_in = static_cast<uInt>(in.size());
    started_ = true;
    while (zs_.avail_in > 0 && !done_ && !at_boundary_) {
      zs_.next_out = out_buf_.data();
      zs_.avail_out = static_cast<uInt>(out_buf_.size());
      const int r = inflate(&zs_, Z_NO_FLUSH);
      const std::size_t produced = out_buf_.size() - zs_.avail_out;
      if (produced > 0) out({out_buf_.data(), produced});
      if (r == Z_STREAM_END) {
        at_boundary_ = true;
        started_ = false;
      } else if (r != Z_OK && r != Z_BUF_ERROR) {
        tear(zs_.msg != nullptr ? zs_.msg : "gzip stream corrupt");
      }
    }
    return in.size() - zs_.avail_in;
  }

 private:
  z_stream zs_ = {};
  bool started_ = false;
};
#endif  // ARTEMIS_HAVE_ZLIB

#ifdef ARTEMIS_HAVE_BZIP2
class Bz2Chunk final : public CodecChunkBase<Bz2Chunk> {
 public:
  static constexpr std::size_t kMagicLen = 4;
  static constexpr const char* kResetError = "bzip2 stream reset failed";
  static constexpr const char* kTruncatedError = "bzip2 stream truncated";

  Bz2Chunk() {
    if (BZ2_bzDecompressInit(&bzs_, 0, 0) != BZ_OK) {
      throw std::runtime_error("bzDecompressInit failed");
    }
  }
  ~Bz2Chunk() override { BZ2_bzDecompressEnd(&bzs_); }

  static bool is_magic(const std::uint8_t* p) {
    return p[0] == 'B' && p[1] == 'Z' && p[2] == 'h' && p[3] >= '1' && p[3] <= '9';
  }

  bool restart() {
    BZ2_bzDecompressEnd(&bzs_);
    bzs_ = {};
    return BZ2_bzDecompressInit(&bzs_, 0, 0) == BZ_OK;
  }

  bool mid_member() const { return started_; }

  std::size_t decode_impl(std::span<const std::uint8_t> in, const Output& out) {
    bzs_.next_in = const_cast<char*>(reinterpret_cast<const char*>(in.data()));
    bzs_.avail_in = static_cast<unsigned>(in.size());
    started_ = true;
    while (bzs_.avail_in > 0 && !done_ && !at_boundary_) {
      bzs_.next_out = reinterpret_cast<char*>(out_buf_.data());
      bzs_.avail_out = static_cast<unsigned>(out_buf_.size());
      const int r = BZ2_bzDecompress(&bzs_);
      const std::size_t produced = out_buf_.size() - bzs_.avail_out;
      if (produced > 0) out({out_buf_.data(), produced});
      if (r == BZ_STREAM_END) {
        at_boundary_ = true;
        started_ = false;
      } else if (r != BZ_OK) {
        tear("bzip2 stream corrupt");
      }
    }
    return in.size() - bzs_.avail_in;
  }

 private:
  bz_stream bzs_ = {};
  bool started_ = false;
};
#endif  // ARTEMIS_HAVE_BZIP2

}  // namespace

std::unique_ptr<ChunkDecompressor> make_chunk_decompressor(Compression compression) {
  switch (compression) {
    case Compression::kGzip:
#ifdef ARTEMIS_HAVE_ZLIB
      return std::make_unique<GzipChunk>();
#else
      throw std::runtime_error("gzip payload but built without zlib");
#endif
    case Compression::kBzip2:
#ifdef ARTEMIS_HAVE_BZIP2
      return std::make_unique<Bz2Chunk>();
#else
      throw std::runtime_error("bzip2 payload but built without libbz2");
#endif
    case Compression::kNone:
      break;
  }
  return std::make_unique<IdentityChunk>();
}

std::string decompress_file(const std::string& path,
                            const ChunkDecompressor::Output& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> buf(kFileChunk);
  std::unique_ptr<ChunkDecompressor> codec;
  for (;;) {
    file.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(file.gcount());
    if (file.bad()) throw std::runtime_error("cannot read " + path);
    if (n == 0) break;
    // The first read holds min(file size, kFileChunk) bytes: the magic.
    if (!codec) codec = make_chunk_decompressor(sniff_compression({buf.data(), n}));
    // false: torn, or trailing non-member bytes — either way, done.
    if (!codec->feed({buf.data(), n}, out)) break;
  }
  if (!codec) return {};  // empty file
  codec->finish(out);
  return codec->error();
}

#ifdef ARTEMIS_HAVE_ZLIB
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> in, int level) {
  z_stream zs = {};
  // 15 + 16: gzip wrapper; zlib writes mtime 0 and no name by default.
  if (deflateInit2(&zs, level, Z_DEFLATED, 15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("deflateInit failed");
  }
  // Feed input in sub-4GiB slices: avail_in is 32-bit, and a silent
  // wrap would emit a valid-looking member missing most of the data.
  std::vector<std::uint8_t> out;
  std::uint8_t buf[64 * 1024];
  std::size_t pos = 0;
  for (;;) {
    const std::size_t take = std::min<std::size_t>(in.size() - pos, 1u << 30);
    zs.next_in = const_cast<Bytef*>(in.data() + pos);
    zs.avail_in = static_cast<uInt>(take);
    pos += take;
    const int flush = pos == in.size() ? Z_FINISH : Z_NO_FLUSH;
    int r = Z_OK;
    do {
      zs.next_out = buf;
      zs.avail_out = sizeof buf;
      r = deflate(&zs, flush);
      if (r == Z_STREAM_ERROR) {
        deflateEnd(&zs);
        throw std::runtime_error("deflate failed");
      }
      out.insert(out.end(), buf, buf + (sizeof buf - zs.avail_out));
    } while (zs.avail_out == 0);
    if (r == Z_STREAM_END) break;
  }
  deflateEnd(&zs);
  return out;
}
#endif  // ARTEMIS_HAVE_ZLIB

}  // namespace artemis::mrt
