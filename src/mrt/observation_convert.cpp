#include "mrt/observation_convert.hpp"

#include <algorithm>

#include "mrt/stream_reader.hpp"

namespace artemis::mrt {
namespace {

constexpr std::uint8_t kBgpMsgUpdate = 2;

/// Sanity cap on one MRT record (header + body). Real records top out in
/// the hundreds of KB (a grouped RIB record); a length field beyond this
/// is corruption, and bounding it keeps the chunk-boundary carry buffer
/// from ballooning on garbage input.
constexpr std::uint64_t kMaxRecordBytes = 64ull * 1024 * 1024;

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

ObservationConverter::ObservationConverter(ObservationConvertOptions options)
    : options_(std::move(options)) {
  batch_.reserve(options_.batch_capacity);
}

const std::string& ObservationConverter::source_for(bgp::Asn peer) {
  if (options_.source_scheme == ImportSourceScheme::kSingle) {
    return options_.source_prefix;
  }
  const auto it = std::lower_bound(
      sources_.begin(), sources_.end(), peer,
      [](const PeerSource& s, bgp::Asn p) { return s.peer < p; });
  if (it != sources_.end() && it->peer == peer) return it->name;
  PeerSource entry;
  entry.peer = peer;
  entry.name = options_.source_prefix + ":AS" + std::to_string(peer);
  return sources_.insert(it, std::move(entry))->name;
}

feeds::Observation& ObservationConverter::slot(feeds::ObservationType type,
                                               bgp::Asn peer, std::int64_t event_us) {
  feeds::Observation& obs = batch_.emplace_back();
  obs.type = type;
  obs.source = source_for(peer);  // copy-assign into recycled capacity
  obs.vantage = peer;
  obs.event_time = SimTime::at_micros(event_us);
  obs.delivered_at = SimTime::at_micros(event_us + options_.delivery_lag.as_micros());
  return obs;
}

void ObservationConverter::flush(const feeds::ObservationBatchHandler& sink) {
  if (batch_.empty()) return;
  sink(batch_.view());
  emitted_ += batch_.size();
  batch_.clear();
}

void ObservationConverter::convert_bgp4mp(ByteReader body, bool as4,
                                          std::int64_t event_us) {
  const bgp::Asn peer = as4 ? body.u32() : body.u16();
  if (as4) {
    body.u32();  // local ASN
  } else {
    body.u16();
  }
  body.u16();  // interface index
  const std::uint16_t afi = body.u16();
  if (afi != 1 && afi != 2) throw DecodeError("bad BGP4MP address family");
  const std::size_t addr_len = afi == 1 ? 4 : 16;
  body.bytes(addr_len);  // peer IP
  body.bytes(addr_len);  // local IP

  for (int i = 0; i < 16; ++i) {
    if (body.u8() != 0xFF) throw DecodeError("bad BGP marker");
  }
  const std::uint16_t total_len = body.u16();
  if (total_len < 19) throw DecodeError("BGP message too short");
  const std::uint8_t msg_type = body.u8();
  ByteReader msg = body.sub(static_cast<std::size_t>(total_len) - 19);
  // Real archives interleave OPENs/KEEPALIVEs with UPDATEs; only UPDATEs
  // carry elems.
  if (msg_type != kBgpMsgUpdate) return;

  withdrawn_scratch_.clear();
  ByteReader withdrawn = msg.sub(msg.u16());
  while (!withdrawn.done()) {
    withdrawn_scratch_.push_back(read_nlri_prefix(withdrawn, net::IpFamily::kIpv4));
  }
  ByteReader attrs = msg.sub(msg.u16());
  if (attrs.remaining() > 0) {
    decode_path_attributes_into(attrs, scratch_attrs_, /*two_byte_as_path=*/!as4,
                                hops_scratch_, as4_scratch_, &mp_scratch_);
  } else {
    scratch_attrs_.reset();
    mp_scratch_.clear();
  }
  // Announcements before withdrawals within a record, v4 (classic fields)
  // before v6 (MP attributes) within each — the libBGPStream elem order.
  while (!msg.done()) {
    const net::Prefix prefix = read_nlri_prefix(msg, net::IpFamily::kIpv4);
    feeds::Observation& obs = slot(feeds::ObservationType::kAnnouncement, peer, event_us);
    obs.prefix = prefix;
    obs.attrs = scratch_attrs_;
  }
  for (const auto& prefix : mp_scratch_.announced) {
    feeds::Observation& obs = slot(feeds::ObservationType::kAnnouncement, peer, event_us);
    obs.prefix = prefix;
    obs.attrs = scratch_attrs_;
  }
  for (const auto& prefix : withdrawn_scratch_) {
    feeds::Observation& obs = slot(feeds::ObservationType::kWithdrawal, peer, event_us);
    obs.prefix = prefix;
    obs.attrs.reset();
  }
  for (const auto& prefix : mp_scratch_.withdrawn) {
    feeds::Observation& obs = slot(feeds::ObservationType::kWithdrawal, peer, event_us);
    obs.prefix = prefix;
    obs.attrs.reset();
  }
}

void ObservationConverter::convert_peer_index(ByteReader body) {
  body.u32();  // collector BGP ID
  const std::uint16_t name_len = body.u16();
  body.bytes(name_len);  // view name
  const std::uint16_t count = body.u16();
  peer_table_.clear();
  peer_table_.reserve(count);
  for (int i = 0; i < count; ++i) {
    const std::uint8_t peer_type = body.u8();
    body.u32();  // peer BGP ID
    body.bytes((peer_type & 0x01) != 0 ? 16 : 4);  // peer IP
    peer_table_.push_back((peer_type & 0x02) != 0 ? body.u32() : body.u16());
  }
}

void ObservationConverter::convert_rib(ByteReader body, net::IpFamily family,
                                       std::int64_t event_us) {
  body.u32();  // sequence
  const net::Prefix prefix = read_nlri_prefix(body, family);
  const std::uint16_t entry_count = body.u16();
  for (int i = 0; i < entry_count; ++i) {
    const std::uint16_t peer_index = body.u16();
    if (peer_index >= peer_table_.size()) {
      throw DecodeError("RIB entry references unknown peer");
    }
    body.u32();  // originated time (the import clock uses the record header)
    ByteReader attrs = body.sub(body.u16());
    decode_path_attributes_into(attrs, scratch_attrs_, /*two_byte_as_path=*/false,
                                hops_scratch_, as4_scratch_);
    feeds::Observation& obs =
        slot(feeds::ObservationType::kRouteState, peer_table_[peer_index], event_us);
    obs.prefix = prefix;
    obs.attrs = scratch_attrs_;
  }
}

bool ObservationConverter::process_record(const std::uint8_t* p, std::size_t total,
                                          const feeds::ObservationBatchHandler& sink) {
  // MRT common header: u32 seconds, u16 type, u16 subtype, u32 length.
  const std::uint32_t seconds = be32(p);
  const std::uint16_t type = be16(p + 4);
  const std::uint16_t subtype = be16(p + 6);
  std::size_t body_off = 12;
  std::size_t length = total - 12;
  std::int64_t ts_us = static_cast<std::int64_t>(seconds) * 1'000'000;
  if (type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt)) {
    if (length < 4) {
      file_stats_.error = "ET record too short";
      stopped_ = true;
      return false;
    }
    ts_us += be32(p + 12);
    body_off = 16;
    length -= 4;
  }
  // Monotone import clock: archives interleave collector shards whose
  // headers can step backwards; clamp so event_time never regresses.
  const std::int64_t event_us = std::max(clock_us_, ts_us);

  ByteReader body({p + body_off, length});
  const std::size_t mark = batch_.size();
  try {
    if (type == static_cast<std::uint16_t>(RecordType::kBgp4mp) ||
        type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt)) {
      if (subtype == static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4)) {
        convert_bgp4mp(body, /*as4=*/true, event_us);
      } else if (subtype == static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage)) {
        convert_bgp4mp(body, /*as4=*/false, event_us);
      }
      // Other BGP4MP subtypes (state changes) carry no elems.
    } else if (type == static_cast<std::uint16_t>(RecordType::kTableDumpV2)) {
      if (subtype == static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable)) {
        convert_peer_index(body);
      } else if (subtype ==
                 static_cast<std::uint16_t>(TableDumpV2Subtype::kRibIpv4Unicast)) {
        convert_rib(body, net::IpFamily::kIpv4, event_us);
      } else if (subtype ==
                 static_cast<std::uint16_t>(TableDumpV2Subtype::kRibIpv6Unicast)) {
        convert_rib(body, net::IpFamily::kIpv6, event_us);
      }
      // Unknown TABLE_DUMP_V2 subtypes are skipped.
    }
    // Unknown record types are skipped (forward compatibility).
  } catch (const UnsupportedRecord&) {
    // A shape we recognize but do not model (AS_SET, exotic AFI/SAFI):
    // drop the record's partially-staged observations and keep going at
    // the next record boundary — the rest of the window is good data.
    while (batch_.size() > mark) batch_.pop_back();
    file_stats_.skipped_records += 1;
    file_stats_.bytes_consumed += total;
    clock_us_ = event_us;
    return true;
  } catch (const DecodeError& e) {
    // Malformed interior record: drop its partially-staged observations
    // so every emitted batch ends on a record boundary, and stop the
    // file cleanly at the previous record.
    while (batch_.size() > mark) batch_.pop_back();
    file_stats_.error = e.what();
    stopped_ = true;
    return false;
  }
  clock_us_ = event_us;
  file_stats_.records += 1;
  file_stats_.observations += batch_.size() - mark;
  file_stats_.bytes_consumed += total;
  if (batch_.size() >= options_.batch_capacity) flush(sink);
  return true;
}

void ObservationConverter::begin_file() {
  file_stats_ = ConvertFileStats{};
  carry_.clear();
  stopped_ = false;
  peer_table_.clear();  // the peer index never spans files
}

void ObservationConverter::feed(std::span<const std::uint8_t> chunk,
                                const feeds::ObservationBatchHandler& sink) {
  std::size_t pos = 0;
  const std::size_t size = chunk.size();
  while (pos < size && !stopped_) {
    if (!carry_.empty()) {
      // A record is straddling chunk boundaries: grow the carry to the
      // header, learn the record length, then to the full record.
      if (carry_.size() < 12) {
        const std::size_t take = std::min<std::size_t>(12 - carry_.size(), size - pos);
        carry_.insert(carry_.end(), chunk.begin() + static_cast<std::ptrdiff_t>(pos),
                      chunk.begin() + static_cast<std::ptrdiff_t>(pos + take));
        pos += take;
        if (carry_.size() < 12) return;  // chunk exhausted mid-header
      }
      const std::uint64_t total = 12 + static_cast<std::uint64_t>(be32(&carry_[8]));
      if (total > kMaxRecordBytes) {
        file_stats_.error = "oversized MRT record";
        stopped_ = true;
        return;
      }
      const std::size_t take =
          std::min<std::size_t>(static_cast<std::size_t>(total) - carry_.size(),
                                size - pos);
      carry_.insert(carry_.end(), chunk.begin() + static_cast<std::ptrdiff_t>(pos),
                    chunk.begin() + static_cast<std::ptrdiff_t>(pos + take));
      pos += take;
      if (carry_.size() < total) return;  // still incomplete
      process_record(carry_.data(), static_cast<std::size_t>(total), sink);
      carry_.clear();
      continue;
    }
    // Fast path: complete records converted in place, zero copy.
    if (size - pos < 12) break;
    const std::uint64_t total = 12 + static_cast<std::uint64_t>(be32(&chunk[pos + 8]));
    if (total > kMaxRecordBytes) {
      file_stats_.error = "oversized MRT record";
      stopped_ = true;
      return;
    }
    if (size - pos < total) break;
    if (!process_record(&chunk[pos], static_cast<std::size_t>(total), sink)) return;
    pos += static_cast<std::size_t>(total);
  }
  if (!stopped_ && pos < size) {
    carry_.assign(chunk.begin() + static_cast<std::ptrdiff_t>(pos), chunk.end());
  }
}

ConvertFileStats ObservationConverter::finish_file(
    const feeds::ObservationBatchHandler& sink) {
  if (!stopped_ && !carry_.empty()) file_stats_.truncated = true;
  carry_.clear();
  stopped_ = false;
  flush(sink);
  return file_stats_;
}

ConvertFileStats ObservationConverter::convert_file(
    std::span<const std::uint8_t> data, const feeds::ObservationBatchHandler& sink) {
  begin_file();
  feed(data, sink);
  return finish_file(sink);
}

MrtImportResult import_mrt_files(std::span<const std::string> paths,
                                 const std::string& journal_dir,
                                 const ObservationConvertOptions& options,
                                 const journal::JournalWriterOptions& writer_options) {
  MrtImportResult result;
  journal::JournalWriter writer(journal_dir, writer_options);
  ObservationConverter converter(options);
  const feeds::ObservationBatchHandler sink = writer.tap();
  for (const auto& path : paths) {
    // One streaming pass per file whatever its transport: the
    // decompressor (identity for raw MRT) hands bounded chunks to the
    // converter, which carries records that straddle them — no temp
    // file, O(chunk) resident memory. A torn or corrupt compressed
    // stream imports everything recovered before the tear and counts as
    // a truncated file, even when the tear fell on a record boundary.
    converter.begin_file();
    const std::string transport_error = decompress_file(
        path, [&](std::span<const std::uint8_t> chunk) { converter.feed(chunk, sink); });
    ConvertFileStats stats = converter.finish_file(sink);
    if (!transport_error.empty() && stats.error.empty()) stats.truncated = true;
    result.records += stats.records;
    result.skipped_records += stats.skipped_records;
    result.observations += stats.observations;
    result.mrt_bytes += stats.bytes_consumed;
    if (stats.clean()) {
      result.files += 1;
    } else if (stats.truncated) {
      result.truncated_files += 1;
      std::string message = path + ": truncated mid-record (" +
                            std::to_string(stats.records) +
                            " complete records imported)";
      if (!transport_error.empty()) message += "; " + transport_error;
      result.file_errors.push_back(std::move(message));
    } else {
      result.failed_files += 1;
      result.file_errors.push_back(path + ": " + stats.error);
    }
    if (stats.skipped_records > 0) {
      result.file_errors.push_back(path + ": skipped " +
                                   std::to_string(stats.skipped_records) +
                                   " unsupported record(s)");
    }
  }
  writer.close();
  result.journal_bytes = writer.bytes_written();
  result.segments = writer.segments_opened();
  return result;
}

json::Value import_result_to_json(const std::string& journal_dir,
                                  const MrtImportResult& result) {
  json::Object out;
  out["journal_dir"] = json::Value(journal_dir);
  out["files"] = json::Value(static_cast<std::int64_t>(result.files));
  out["truncated_files"] = json::Value(static_cast<std::int64_t>(result.truncated_files));
  out["failed_files"] = json::Value(static_cast<std::int64_t>(result.failed_files));
  out["records"] = json::Value(static_cast<std::int64_t>(result.records));
  out["skipped_records"] =
      json::Value(static_cast<std::int64_t>(result.skipped_records));
  out["observations"] = json::Value(static_cast<std::int64_t>(result.observations));
  out["mrt_bytes"] = json::Value(static_cast<std::int64_t>(result.mrt_bytes));
  out["journal_bytes"] = json::Value(static_cast<std::int64_t>(result.journal_bytes));
  out["segments"] = json::Value(static_cast<std::int64_t>(result.segments));
  return json::Value(std::move(out));
}

}  // namespace artemis::mrt
