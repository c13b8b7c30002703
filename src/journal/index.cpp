#include "journal/index.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "journal/codec.hpp"
#include "mrt/stream_reader.hpp"

namespace artemis::journal {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ the Bloom
//
// Everything below is normative: docs/journal-format.md §Bloom documents
// these exact constants and steps so a second implementation (or a
// fixture regenerated from the spec) produces identical footer bytes.

/// Truncation ladders. A record prefix inserts every rung <= its own
/// length; a query prefix tests every rung <= its own length. Records
/// shorter than the first rung insert the per-family marker (rung 0).
constexpr int kLadderV4[3] = {8, 16, 24};
constexpr int kLadderV6[3] = {16, 32, 48};

inline const int* ladder_for(std::uint8_t family) {
  return family == static_cast<std::uint8_t>(net::IpFamily::kIpv4) ? kLadderV4
                                                                   : kLadderV6;
}

/// 64-bit finalizer (the murmur3/splitmix constants).
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// Hash of one Bloom key: (family, rung, address truncated to rung bits).
/// The 16 canonical address bytes — bits past `rung` zeroed; rungs are
/// byte multiples so zeroing is whole trailing bytes — load as two
/// little-endian u64 words and fold with the (family<<8 | rung) tag.
inline std::uint64_t bloom_key_hash(std::uint8_t family, int rung,
                                    const std::uint8_t* addr16) {
  std::uint8_t masked[16] = {};
  std::memcpy(masked, addr16, static_cast<std::size_t>(rung / 8));
  std::uint64_t w0;
  std::uint64_t w1;
  std::memcpy(&w0, masked, 8);
  std::memcpy(&w1, masked + 8, 8);
  const std::uint64_t tag =
      (static_cast<std::uint64_t>(family) << 8) | static_cast<std::uint64_t>(rung);
  std::uint64_t h = mix64(w0 ^ (0x9E3779B97F4A7C15ull * (tag + 1)));
  return mix64(h ^ w1);
}

/// The number of probe bits per key.
constexpr std::uint8_t kBloomHashes = 4;

inline void bloom_set(std::vector<std::uint64_t>& words, std::uint64_t m_bits,
                      std::uint64_t h) {
  const std::uint64_t h2 = mix64(h) | 1u;  // odd: full-period double hashing
  for (std::uint8_t i = 0; i < kBloomHashes; ++i) {
    const std::uint64_t bit = (h + i * h2) & (m_bits - 1);
    words[bit >> 6] |= 1ull << (bit & 63);
  }
}

inline bool bloom_test(const std::vector<std::uint64_t>& words,
                       std::uint64_t m_bits, std::uint64_t h) {
  const std::uint64_t h2 = mix64(h) | 1u;
  for (std::uint8_t i = 0; i < kBloomHashes; ++i) {
    const std::uint64_t bit = (h + i * h2) & (m_bits - 1);
    if ((words[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

void store_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Bounded zigzag varint read for the decoder below.
bool get_zigzag(const std::uint8_t*& cursor, const std::uint8_t* end,
                std::int64_t& value) {
  std::uint64_t raw = 0;
  if (!get_varint(cursor, end, raw)) return false;
  value = zigzag_decode(raw);
  return true;
}

}  // namespace

std::string index_path(const std::string& dir, std::uint64_t first_seq) {
  char name[32];  // "seg-" + 16 hex + ".ajx"
  std::snprintf(name, sizeof(name), "seg-%016llx.ajx",
                static_cast<unsigned long long>(first_seq));
  return dir + "/" + name;
}

// ---------------------------------------------------------- QueryFilter

bool QueryFilter::matches(const feeds::Observation& obs) const {
  const std::int64_t event_us = obs.event_time.as_micros();
  if (event_us < min_event_us || event_us > max_event_us) return false;
  if (prefix.has_value() && !prefix->overlaps(obs.prefix)) return false;
  if (!any_prefixes.empty()) {
    bool any = false;
    for (const auto& candidate : any_prefixes) {
      if (candidate.overlaps(obs.prefix)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (!source.empty() && obs.source != source) return false;
  if (origin != bgp::kNoAsn && obs.origin_as() != origin) return false;
  if (type.has_value() && obs.type != *type) return false;
  return true;
}

// ---------------------------------------------------------- SegmentIndex

bool SegmentIndex::may_contain_prefix(const net::Prefix& prefix) const {
  if (bloom_bits == 0 || bloom.empty()) return true;  // no filter recorded
  const auto family = static_cast<std::uint8_t>(prefix.family());
  const int* ladder = ladder_for(family);
  // Shorter than the first rung: the filter cannot rule overlap out
  // (records longer than the query share no tested key with it).
  if (prefix.length() < ladder[0]) return true;
  const std::uint8_t* addr = prefix.address().bytes().data();
  // The marker covers records shorter than the first rung (they overlap
  // any same-family query whose bits they share — too coarse to test,
  // so their presence alone forces a scan).
  if (bloom_test(bloom, bloom_bits, bloom_key_hash(family, 0, addr))) {
    return true;
  }
  for (int i = 0; i < 3; ++i) {
    if (ladder[i] > prefix.length()) break;
    if (bloom_test(bloom, bloom_bits, bloom_key_hash(family, ladder[i], addr))) {
      return true;
    }
  }
  return false;
}

bool SegmentIndex::contains_source(std::string_view source) const {
  return std::find(sources.begin(), sources.end(), source) != sources.end();
}

bool SegmentIndex::may_match(const QueryFilter& filter) const {
  if (record_count == 0) return false;
  if (max_event_us < filter.min_event_us || min_event_us > filter.max_event_us) {
    return false;
  }
  if (!filter.source.empty() && !contains_source(filter.source)) return false;
  if (filter.prefix.has_value() && !may_contain_prefix(*filter.prefix)) {
    return false;
  }
  if (!filter.any_prefixes.empty()) {
    // The segment survives if ANY projected prefix might overlap it;
    // only a filter that rules out every one proves a skip.
    bool any = false;
    for (const auto& candidate : filter.any_prefixes) {
      if (may_contain_prefix(candidate)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

std::vector<std::uint8_t> SegmentIndex::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + sources.size() * 16 + bloom.size() * 8);
  for (const char c : kIndexMagic) out.push_back(static_cast<std::uint8_t>(c));
  out.push_back(static_cast<std::uint8_t>(kIndexVersion));
  out.push_back(static_cast<std::uint8_t>(kIndexVersion >> 8));
  put_varint(out, first_seq);
  put_varint(out, record_count);
  put_varint(out, zigzag_encode(min_event_us));
  put_varint(out, zigzag_encode(max_event_us));
  put_varint(out, zigzag_encode(min_delivered_us));
  put_varint(out, zigzag_encode(max_delivered_us));
  put_varint(out, sources.size());
  for (const auto& source : sources) {
    put_varint(out, source.size());
    out.insert(out.end(), source.begin(), source.end());
  }
  out.push_back(bloom_hashes);
  put_varint(out, bloom_bits);
  // Trailing zero words are trimmed on disk (a sparse segment's footer
  // is tiny) and restored to zero on decode.
  std::size_t stored = bloom.size();
  while (stored > 0 && bloom[stored - 1] == 0) --stored;
  put_varint(out, stored);
  for (std::size_t i = 0; i < stored; ++i) {
    const std::uint64_t word = bloom[i];
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    }
  }
  store_le32(out, crc32(out.data(), out.size()));
  return out;
}

std::optional<SegmentIndex> SegmentIndex::decode(const std::uint8_t* data,
                                                 std::size_t size) {
  // Advisory metadata: every malformation — short file, bad magic, torn
  // tail, flipped byte, foreign version — is a quiet nullopt.
  if (size < kIndexMagic.size() + 2 + 4) return std::nullopt;
  if (std::memcmp(data, kIndexMagic.data(), kIndexMagic.size()) != 0) {
    return std::nullopt;
  }
  const std::uint8_t* crc_bytes = data + size - 4;
  const std::uint32_t stored_crc = static_cast<std::uint32_t>(crc_bytes[0]) |
                                   static_cast<std::uint32_t>(crc_bytes[1]) << 8 |
                                   static_cast<std::uint32_t>(crc_bytes[2]) << 16 |
                                   static_cast<std::uint32_t>(crc_bytes[3]) << 24;
  if (crc32(data, size - 4) != stored_crc) return std::nullopt;

  const std::uint8_t* cursor = data + kIndexMagic.size();
  const std::uint8_t* const end = data + size - 4;
  const std::uint16_t version =
      static_cast<std::uint16_t>(cursor[0] | (cursor[1] << 8));
  cursor += 2;
  if (version != kIndexVersion) return std::nullopt;

  SegmentIndex index;
  if (!get_varint(cursor, end, index.first_seq)) return std::nullopt;
  if (!get_varint(cursor, end, index.record_count)) return std::nullopt;
  if (!get_zigzag(cursor, end, index.min_event_us)) return std::nullopt;
  if (!get_zigzag(cursor, end, index.max_event_us)) return std::nullopt;
  if (!get_zigzag(cursor, end, index.min_delivered_us)) return std::nullopt;
  if (!get_zigzag(cursor, end, index.max_delivered_us)) return std::nullopt;

  std::uint64_t source_count = 0;
  if (!get_varint(cursor, end, source_count) ||
      source_count > static_cast<std::uint64_t>(end - cursor)) {
    return std::nullopt;
  }
  index.sources.reserve(static_cast<std::size_t>(source_count));
  for (std::uint64_t i = 0; i < source_count; ++i) {
    std::uint64_t length = 0;
    if (!get_varint(cursor, end, length) ||
        length > static_cast<std::uint64_t>(end - cursor)) {
      return std::nullopt;
    }
    index.sources.emplace_back(reinterpret_cast<const char*>(cursor),
                               static_cast<std::size_t>(length));
    cursor += length;
  }

  if (cursor == end) return std::nullopt;
  index.bloom_hashes = *cursor++;
  if (!get_varint(cursor, end, index.bloom_bits)) return std::nullopt;
  // Power-of-two and bounded (1 GiB of filter is corruption, not config).
  if (index.bloom_bits != 0 &&
      ((index.bloom_bits & (index.bloom_bits - 1)) != 0 ||
       index.bloom_bits < 64 || index.bloom_bits > (1ull << 33))) {
    return std::nullopt;
  }
  std::uint64_t stored_words = 0;
  if (!get_varint(cursor, end, stored_words)) return std::nullopt;
  const std::uint64_t total_words = index.bloom_bits / 64;
  if (stored_words > total_words ||
      stored_words * 8 != static_cast<std::uint64_t>(end - cursor)) {
    return std::nullopt;
  }
  index.bloom.assign(static_cast<std::size_t>(total_words), 0);
  for (std::uint64_t i = 0; i < stored_words; ++i) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(cursor[b]) << (8 * b);
    }
    cursor += 8;
    index.bloom[static_cast<std::size_t>(i)] = word;
  }
  return index;
}

std::optional<SegmentIndex> load_segment_index(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::uint8_t> data(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool ok =
      data.empty() || std::fread(data.data(), 1, data.size(), file) == data.size();
  std::fclose(file);
  if (!ok) return std::nullopt;
  return SegmentIndex::decode(data.data(), data.size());
}

// --------------------------------------------------- SegmentIndexBuilder

SegmentIndexBuilder::SegmentIndexBuilder(std::uint32_t bloom_bits)
    : bloom_bits_(bloom_bits) {
  if (bloom_bits_ != 0) {
    if ((bloom_bits_ & (bloom_bits_ - 1)) != 0 || bloom_bits_ < 64) {
      throw JournalError("index bloom_bits must be a power of two >= 64");
    }
    bloom_.assign(static_cast<std::size_t>(bloom_bits_ / 64), 0);
  }
  reset(0);
}

void SegmentIndexBuilder::reset(std::uint64_t first_seq) {
  first_seq_ = first_seq;
  record_count_ = 0;
  min_event_us_ = std::numeric_limits<std::int64_t>::max();
  max_event_us_ = std::numeric_limits<std::int64_t>::min();
  min_delivered_us_ = std::numeric_limits<std::int64_t>::max();
  max_delivered_us_ = std::numeric_limits<std::int64_t>::min();
  std::fill(bloom_.begin(), bloom_.end(), 0);
  any_prefix_ = false;
}

void SegmentIndexBuilder::add(const feeds::Observation& obs) {
  ++record_count_;
  const std::int64_t event_us = obs.event_time.as_micros();
  const std::int64_t delivered_us = obs.delivered_at.as_micros();
  min_event_us_ = std::min(min_event_us_, event_us);
  max_event_us_ = std::max(max_event_us_, event_us);
  min_delivered_us_ = std::min(min_delivered_us_, delivered_us);
  max_delivered_us_ = std::max(max_delivered_us_, delivered_us);
  if (bloom_.empty()) return;
  // Bursts repeat one prefix for many records; one insertion covers them
  // all (the Bloom is a set), keeping the append tap near its old cost.
  if (any_prefix_ && obs.prefix == last_prefix_) return;
  last_prefix_ = obs.prefix;
  any_prefix_ = true;
  const auto family = static_cast<std::uint8_t>(obs.prefix.family());
  const int* ladder = ladder_for(family);
  const std::uint8_t* addr = obs.prefix.address().bytes().data();
  bool any_rung = false;
  for (int i = 0; i < 3; ++i) {
    if (ladder[i] > obs.prefix.length()) break;
    bloom_set(bloom_, bloom_bits_, bloom_key_hash(family, ladder[i], addr));
    any_rung = true;
  }
  if (!any_rung) {
    bloom_set(bloom_, bloom_bits_, bloom_key_hash(family, 0, addr));
  }
}

SegmentIndex SegmentIndexBuilder::finalize(
    const std::vector<std::string>& sources) const {
  SegmentIndex index;
  index.first_seq = first_seq_;
  index.record_count = record_count_;
  if (record_count_ > 0) {
    index.min_event_us = min_event_us_;
    index.max_event_us = max_event_us_;
    index.min_delivered_us = min_delivered_us_;
    index.max_delivered_us = max_delivered_us_;
  }
  index.sources = sources;
  index.bloom_hashes = bloom_.empty() ? 0 : kBloomHashes;
  index.bloom_bits = bloom_.empty() ? 0 : bloom_bits_;
  index.bloom = bloom_;
  return index;
}

// ------------------------------------------------------- maintenance

namespace {

/// Reads a segment's decompressed bytes; empty optional when the file
/// cannot be read (or is compressed and this build lacks the codec). A
/// torn compressed stream returns the recovered prefix — the same
/// truncated-tail shape the reader already handles.
std::optional<std::vector<std::uint8_t>> read_segment_bytes(
    const std::string& path) {
  try {
    std::vector<std::uint8_t> out;
    mrt::decompress_file(path, [&out](std::span<const std::uint8_t> bytes) {
      out.insert(out.end(), bytes.begin(), bytes.end());
    });
    return out;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::size_t build_missing_footers(const std::string& dir,
                                  std::uint32_t bloom_bits) {
  std::error_code ec;
  // seq -> path, raw preferred when both storage forms exist.
  std::map<std::uint64_t, std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!is_segment_file_name(name)) continue;
    const std::uint64_t seq = segment_name_seq(name);
    auto [it, inserted] = segments.emplace(seq, entry.path().string());
    if (!inserted && is_raw_segment_file_name(name)) it->second = entry.path().string();
  }
  if (ec) {
    throw JournalError("cannot read journal directory " + dir + ": " +
                       ec.message());
  }

  std::size_t written = 0;
  SegmentIndexBuilder builder(bloom_bits);
  for (const auto& [seq, path] : segments) {
    const std::string idx_path = index_path(dir, seq);
    if (const auto existing = load_segment_index(idx_path);
        existing.has_value() && existing->first_seq == seq) {
      continue;  // already indexed
    }
    const auto bytes = read_segment_bytes(path);
    if (!bytes.has_value() || bytes->size() < kSegmentHeaderSize) continue;
    builder.reset(seq);
    std::vector<std::string> sources;
    try {
      const SegmentHeader header = SegmentHeader::decode(bytes->data(), path);
      if (header.version != kFormatVersion || header.first_seq != seq) continue;
      RecordDecoder decoder;
      feeds::Observation obs;
      const std::uint8_t* cursor = bytes->data() + kSegmentHeaderSize;
      const std::uint8_t* const end = bytes->data() + bytes->size();
      const std::uint8_t* payload = nullptr;
      std::uint64_t length = 0;
      while (next_frame(cursor, end, payload, length)) {
        decoder.decode(payload, static_cast<std::size_t>(length), obs);
        builder.add(obs);
        // First-sight source order mirrors the segment's interned table.
        if (std::find(sources.begin(), sources.end(), obs.source) ==
            sources.end()) {
          sources.push_back(obs.source);
        }
      }
    } catch (const std::exception&) {
      continue;  // undecodable segment: leave unindexed, it will full-scan
    }
    if (builder.record_count() == 0) continue;
    const std::vector<std::uint8_t> encoded = builder.finalize(sources).encode();
    const std::string tmp = idx_path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
      throw JournalError("cannot write index footer " + tmp);
    }
    const bool ok =
        std::fwrite(encoded.data(), 1, encoded.size(), file) == encoded.size();
    std::fclose(file);
    if (!ok) {
      fs::remove(tmp, ec);
      throw JournalError("short write on index footer " + tmp);
    }
    fs::rename(tmp, idx_path, ec);
    if (ec) {
      throw JournalError("cannot install index footer " + idx_path + ": " +
                         ec.message());
    }
    ++written;
  }
  return written;
}

}  // namespace artemis::journal
