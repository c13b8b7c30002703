#include "journal/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "mrt/stream_reader.hpp"

namespace artemis::journal {

void JournalReader::MappedSegment::reset() {
  if (data != nullptr && mapped) ::munmap(const_cast<std::uint8_t*>(data), size);
  owned.clear();
  data = nullptr;
  size = 0;
  mapped = false;
}

JournalReader::MappedSegment::~MappedSegment() { reset(); }

/// Maps (or, when mmap is unavailable, reads) one segment. Decoding
/// straight out of the page cache keeps replay zero-copy, the
/// segment-file style NDN-DPDK uses for its I/O path.
void JournalReader::MappedSegment::open(const std::string& path) {
  reset();
  if (is_compressed_segment_file_name(
          std::filesystem::path(path).filename().string())) {
    // A cold (gzip) segment: decompress into owned storage. Compressed
    // segments are written whole at seal time (tmp + rename), so unlike
    // a raw tail, a torn stream here is corruption, not a crash scar.
    const std::string tear =
        mrt::decompress_file(path, [this](std::span<const std::uint8_t> bytes) {
          owned.insert(owned.end(), bytes.begin(), bytes.end());
        });
    if (!tear.empty()) {
      throw JournalError(path + ": compressed segment is torn (" + tear + ")");
    }
    size = owned.size();
    data = owned.empty() ? nullptr : owned.data();
    return;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw JournalError("cannot open journal segment " + path);
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw JournalError("cannot stat journal segment " + path);
  }
  size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    data = nullptr;
    return;
  }
  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mem != MAP_FAILED) {
    data = static_cast<const std::uint8_t*>(mem);
    mapped = true;
    ::close(fd);
    return;
  }
  owned.resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, owned.data() + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw JournalError("short read on journal segment " + path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data = owned.data();
}

JournalReader::JournalReader(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  // seg-<16 hex digits>.aj[.gz]: one entry per sequence number. When a
  // crash during compression left BOTH storage forms, the raw file wins
  // (it is the one that was sealed first; the writer's resume sweeps the
  // duplicate).
  std::map<std::uint64_t, std::string> by_seq;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (!is_segment_file_name(name)) continue;
    auto [it, inserted] =
        by_seq.emplace(segment_name_seq(name), entry.path().string());
    if (!inserted && is_raw_segment_file_name(name)) {
      it->second = entry.path().string();
    }
  }
  if (ec) {
    throw JournalError("cannot read journal directory " + dir_ + ": " +
                       ec.message());
  }
  if (by_seq.empty()) {
    throw JournalError("no journal segments in " + dir_);
  }
  segments_.reserve(by_seq.size());
  for (auto& [seq, path] : by_seq) segments_.push_back(std::move(path));
}

bool JournalReader::advance_segment() {
  while (segment_index_ < segments_.size() && filtering_) {
    // Footer pruning: when the segment's index footer proves no record
    // can match the filter, step over it without opening it — for a cold
    // .gz segment that skips the whole decompression. Anything less than
    // a valid, matching footer falls through to a normal scan.
    const std::string& path = segments_[segment_index_];
    const std::uint64_t name_seq = segment_name_seq(
        std::filesystem::path(path).filename().string());
    const auto footer = load_segment_index(index_path(dir_, name_seq));
    if (!footer.has_value() || footer->first_seq != name_seq ||
        footer->may_match(filter_)) {
      break;
    }
    if (truncated_tail_) {
      throw JournalError(segments_[segment_index_ - 1] +
                         ": truncated mid-journal (later segments exist)");
    }
    // The skip preserves exact sequence accounting: the footer's record
    // count (CRC-protected) advances the expected sequence, so the next
    // scanned segment faces the same gap check it always did.
    if (first_segment_) {
      next_seq_ = name_seq;
      first_segment_ = false;
    } else if (name_seq != next_seq_) {
      throw JournalError(path + ": sequence gap (expected " +
                         std::to_string(next_seq_) + ", segment starts at " +
                         std::to_string(name_seq) + ")");
    }
    next_seq_ += footer->record_count;
    ++segment_index_;
    ++segments_skipped_;
  }
  if (segment_index_ >= segments_.size()) return false;
  if (truncated_tail_) {
    // A torn record can only exist at the very end of the journal; more
    // segments after one means the middle of the history is damaged.
    throw JournalError(segments_[segment_index_ - 1] +
                       ": truncated mid-journal (later segments exist)");
  }
  const std::string& path = segments_[segment_index_++];
  ++segments_scanned_;
  segment_.open(path);
  if (segment_.size < kSegmentHeaderSize) {
    // A segment torn before its header finished: recoverable only at the
    // tail, same rule as a torn record.
    if (segment_index_ < segments_.size()) {
      throw JournalError(path + ": truncated segment header mid-journal");
    }
    truncated_tail_ = true;
    return false;
  }
  const SegmentHeader header = SegmentHeader::decode(segment_.data, path);
  if (header.version != kFormatVersion) {
    throw JournalError(path + ": format version " +
                       std::to_string(header.version) +
                       " (this build reads only version " +
                       std::to_string(kFormatVersion) + ")");
  }
  if (first_segment_) {
    next_seq_ = header.first_seq;
    first_segment_ = false;
  } else if (header.first_seq != next_seq_) {
    throw JournalError(path + ": sequence gap (expected " +
                       std::to_string(next_seq_) + ", segment starts at " +
                       std::to_string(header.first_seq) + ")");
  }
  cursor_ = kSegmentHeaderSize;
  decoder_.reset();
  prev_length_ = static_cast<std::size_t>(-1);  // memo is per segment
  segment_loaded_ = true;
  return true;
}

std::size_t JournalReader::read_batch(pipeline::ObservationBatch& out,
                                      std::size_t max) {
  out.clear();
  while (out.size() < max) {
    if (!segment_loaded_ || cursor_ >= segment_.size) {
      segment_loaded_ = false;
      if (!advance_segment()) break;
      if (cursor_ >= segment_.size) continue;  // header-only segment
    }
    const std::uint8_t* record = segment_.data + cursor_;
    const std::uint8_t* const end = segment_.data + segment_.size;
    const std::uint8_t* payload = nullptr;
    std::uint64_t length = 0;
    if (!next_frame(record, end, payload, length)) {
      // The record's bytes end before the record does: a torn write.
      // Legal only at the journal's very tail (enforced on the next
      // advance_segment()); everything before it was delivered.
      truncated_tail_ = true;
      segment_loaded_ = false;
      cursor_ = segment_.size;
      continue;
    }
    const std::uint8_t* crc_bytes = payload + length;
    const std::uint32_t stored = static_cast<std::uint32_t>(crc_bytes[0]) |
                                 static_cast<std::uint32_t>(crc_bytes[1]) << 8 |
                                 static_cast<std::uint32_t>(crc_bytes[2]) << 16 |
                                 static_cast<std::uint32_t>(crc_bytes[3]) << 24;
    feeds::Observation& slot = out.emplace_back();
    if (length == prev_length_ && stored == prev_crc_ &&
        decoder_.last_payload_idempotent() &&
        std::memcmp(segment_.data + prev_offset_, payload,
                    static_cast<std::size_t>(length)) == 0) {
      // Byte-identical to the previously verified record AND that record
      // was idempotent (zero time delta, no source definition), so
      // decoding these bytes again must reproduce it exactly: the memcmp
      // IS the integrity check — reuse the decoded form.
      slot = prev_obs_;
    } else {
      if (crc32(payload, static_cast<std::size_t>(length)) != stored) {
        out.pop_back();
        throw JournalError(segments_[segment_index_ - 1] + ": record " +
                           std::to_string(next_seq_) + " CRC mismatch");
      }
      try {
        decoder_.decode(payload, static_cast<std::size_t>(length), slot);
      } catch (...) {
        out.pop_back();
        throw;
      }
      // Only an idempotent record can ever be served from the memo, so
      // skip the deep copy for the (unique-record) majority.
      if (decoder_.last_payload_idempotent()) prev_obs_ = slot;
    }
    // The record-level filter runs after decode (the decoder's delta
    // chain needs every record regardless); a rejected record leaves the
    // batch but all sequence and memo bookkeeping still advances.
    const bool emit = !filtering_ || filter_.matches(slot);
    if (!emit) out.pop_back();
    prev_offset_ = static_cast<std::size_t>(payload - segment_.data);
    prev_length_ = static_cast<std::size_t>(length);
    prev_crc_ = stored;
    const std::size_t frame_begin = cursor_;
    cursor_ = static_cast<std::size_t>(crc_bytes + 4 - segment_.data);
    ++next_seq_;
    ++records_scanned_;
    if (emit) ++records_read_;

    // Run extension: while the NEXT whole frame (length varint, payload,
    // CRC) is byte-identical to the one just emitted and that record is
    // idempotent, emit copies directly — one memcmp replaces framing,
    // CRC and decode per repeat. This is the common case for feed bursts
    // (a collector message repeating one route). A filtered-out record's
    // repeats are stepped over the same way, just without emitting.
    if (decoder_.last_payload_idempotent()) {
      const std::size_t frame_len = cursor_ - frame_begin;
      while (cursor_ + frame_len <= segment_.size &&
             !(emit && out.size() >= max) &&
             std::memcmp(segment_.data + frame_begin, segment_.data + cursor_,
                         frame_len) == 0) {
        if (emit) out.emplace_back() = prev_obs_;
        cursor_ += frame_len;
        ++next_seq_;
        ++records_scanned_;
        if (emit) ++records_read_;
      }
    }
  }
  return out.size();
}

}  // namespace artemis::journal
