#include "mrt/mrt.hpp"

#include <algorithm>
#include <cstring>

namespace artemis::mrt {
namespace {

// BGP message type codes (RFC 4271 §4.1).
constexpr std::uint8_t kBgpMsgUpdate = 2;

// Path attribute type codes.
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAttrMed = 4;
constexpr std::uint8_t kAttrLocalPref = 5;
constexpr std::uint8_t kAttrCommunity = 8;
constexpr std::uint8_t kAttrMpReach = 14;
constexpr std::uint8_t kAttrMpUnreach = 15;
constexpr std::uint8_t kAttrAs4Path = 17;

// RFC 4760 AFI / SAFI values for the families we model.
constexpr std::uint16_t kAfiIpv4 = 1;
constexpr std::uint16_t kAfiIpv6 = 2;
constexpr std::uint8_t kSafiUnicast = 1;
constexpr std::uint8_t kSafiMplsVpn = 128;  ///< labeled VPN (RFC 4364)

// RFC 8277 label-stack entries are 24 bits: label(20) | TC(3) | BoS(1).
// A withdraw carries the compat value 0x800000 instead of a real stack.
constexpr std::uint32_t kVpnWithdrawLabel = 0x800000;
constexpr int kVpnLabelBits = 24;
constexpr int kVpnRdBits = 64;  ///< route distinguisher (RFC 4364 §4.2)

// Attribute flag bits.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLen = 0x10;

constexpr std::uint8_t kAsSet = 1;
constexpr std::uint8_t kAsSequence = 2;

void write_attr_header(ByteWriter& w, std::uint8_t flags, std::uint8_t type,
                       std::size_t len) {
  if (len > 255) {
    w.u8(static_cast<std::uint8_t>(flags | kFlagExtendedLen));
    w.u8(type);
    w.u16(static_cast<std::uint16_t>(len));
  } else {
    w.u8(flags);
    w.u8(type);
    w.u8(static_cast<std::uint8_t>(len));
  }
}

std::size_t nlri_bytes(std::span<const net::Prefix> prefixes, bool labeled) {
  // A labeled NLRI (RFC 8277) spends 3 label + 8 RD bytes before the
  // prefix; the length byte counts those bits too.
  std::size_t total = 0;
  for (const auto& p : prefixes) {
    total += 1 + static_cast<std::size_t>((p.length() + 7) / 8) + (labeled ? 11 : 0);
  }
  return total;
}

/// One SAFI 128 NLRI: length counts label + RD + prefix bits; a one-entry
/// label stack, a zero RD, then the prefix bytes.
void write_labeled_nlri_prefix(ByteWriter& w, const net::Prefix& p,
                               std::uint32_t label_entry) {
  w.u8(static_cast<std::uint8_t>(kVpnLabelBits + kVpnRdBits + p.length()));
  w.u8(static_cast<std::uint8_t>((label_entry >> 16) & 0xFF));
  w.u8(static_cast<std::uint8_t>((label_entry >> 8) & 0xFF));
  w.u8(static_cast<std::uint8_t>(label_entry & 0xFF));
  for (int i = 0; i < kVpnRdBits / 8; ++i) w.u8(0);  // RD 0:0 (fixtures)
  const int nbytes = (p.length() + 7) / 8;
  w.bytes(std::span(p.address().bytes().data(), static_cast<std::size_t>(nbytes)));
}

/// MP_UNREACH_NLRI (RFC 4760 §4): AFI, SAFI, withdrawn v6 NLRI. The only
/// attribute of a v6-withdraw-only update. With mp_labeled_vpn the SAFI
/// is 128 and each NLRI leads with the 0x800000 withdraw-compat label.
void write_mp_unreach(ByteWriter& w, std::span<const net::Prefix> withdrawn,
                      const UpdateEncodeOptions& options) {
  const bool labeled = options.mp_labeled_vpn;
  write_attr_header(w, static_cast<std::uint8_t>(kFlagOptional),
                    kAttrMpUnreach, 3 + nlri_bytes(withdrawn, labeled));
  w.u16(kAfiIpv6);
  w.u8(labeled ? kSafiMplsVpn : kSafiUnicast);
  for (const auto& p : withdrawn) {
    if (labeled) {
      write_labeled_nlri_prefix(w, p, kVpnWithdrawLabel);
    } else {
      write_nlri_prefix(w, p);
    }
  }
}

/// Shared by the AS4 and pre-AS4 encoders: `two_byte_as_path` writes
/// 16-bit AS_PATH hops (AS_TRANS for wide ASNs) and appends an AS4_PATH
/// attribute carrying the true path when any hop was squashed. IPv6
/// prefixes ride in MP_REACH_NLRI / MP_UNREACH_NLRI attributes with a
/// zero next hop of `options.mp_next_hop_len` bytes (16 global-only, 32
/// with the link-local slot most RIS peers fill).
void encode_attrs(ByteWriter& w, const bgp::PathAttributes& attrs,
                  bool two_byte_as_path, std::span<const net::Prefix> mp_announced,
                  std::span<const net::Prefix> mp_withdrawn,
                  const UpdateEncodeOptions& options) {
  // ORIGIN
  write_attr_header(w, kFlagTransitive, kAttrOrigin, 1);
  w.u8(static_cast<std::uint8_t>(attrs.origin));
  // AS_PATH: one AS_SEQUENCE segment (AS_SET for the aggregate fixture).
  const auto& hops = attrs.as_path.hops();
  bool needs_as4 = false;
  {
    const std::size_t hop_bytes = two_byte_as_path ? 2 : 4;
    const std::size_t seg_len = 2 + hop_bytes * hops.size();
    write_attr_header(w, kFlagTransitive, kAttrAsPath, seg_len);
    w.u8(options.as_set_path ? kAsSet : kAsSequence);
    w.u8(static_cast<std::uint8_t>(hops.size()));
    for (const auto asn : hops) {
      if (two_byte_as_path) {
        const bool wide = asn > 0xFFFF;
        needs_as4 = needs_as4 || wide;
        w.u16(static_cast<std::uint16_t>(wide ? kAsTrans : asn));
      } else {
        w.u32(asn);
      }
    }
  }
  // NEXT_HOP: not modeled at the AS level; encoded as 0.0.0.0 for wire
  // completeness and ignored on decode.
  write_attr_header(w, kFlagTransitive, kAttrNextHop, 4);
  w.u32(0);
  // MED
  write_attr_header(w, kFlagOptional, kAttrMed, 4);
  w.u32(attrs.med);
  // LOCAL_PREF
  write_attr_header(w, kFlagTransitive, kAttrLocalPref, 4);
  w.u32(attrs.local_pref);
  // COMMUNITY
  if (!attrs.communities.empty()) {
    write_attr_header(w, static_cast<std::uint8_t>(kFlagOptional | kFlagTransitive),
                      kAttrCommunity, 4 * attrs.communities.size());
    for (const auto& c : attrs.communities) {
      w.u16(c.asn);
      w.u16(c.value);
    }
  }
  // AS4_PATH (RFC 6793): only when a wide ASN was replaced by AS_TRANS.
  if (needs_as4 && !options.as_set_path) {
    write_attr_header(w, static_cast<std::uint8_t>(kFlagOptional | kFlagTransitive),
                      kAttrAs4Path, 2 + 4 * hops.size());
    w.u8(kAsSequence);
    w.u8(static_cast<std::uint8_t>(hops.size()));
    for (const auto asn : hops) w.u32(asn);
  }
  // MP_REACH_NLRI (RFC 4760 §3): AFI, SAFI, next hop, reserved, v6 NLRI.
  // Labeled VPN (SAFI 128) prepends an 8-byte RD to the next hop and a
  // label stack + RD to each NLRI.
  if (!mp_announced.empty()) {
    const bool labeled = options.mp_labeled_vpn;
    // Labeled: every 16-byte v6 next hop gains its own 8-byte RD, so the
    // global-only form is 24 and the global+link-local form is 48.
    const auto nh_len = static_cast<std::size_t>(
        labeled ? (options.mp_next_hop_len == 32 ? 48 : 24)
                : options.mp_next_hop_len);
    write_attr_header(w, static_cast<std::uint8_t>(kFlagOptional), kAttrMpReach,
                      5 + nh_len + nlri_bytes(mp_announced, labeled));
    w.u16(kAfiIpv6);
    w.u8(labeled ? kSafiMplsVpn : kSafiUnicast);
    w.u8(static_cast<std::uint8_t>(nh_len));
    for (std::size_t i = 0; i < nh_len; ++i) w.u8(0);  // next hop: not modeled
    w.u8(0);  // reserved
    for (const auto& p : mp_announced) {
      if (labeled) {
        // label(20) | TC(3)=0 | bottom-of-stack.
        write_labeled_nlri_prefix(w, p, ((options.mp_vpn_label & 0xFFFFF) << 4) | 0x1);
      } else {
        write_nlri_prefix(w, p);
      }
    }
  }
  if (!mp_withdrawn.empty()) write_mp_unreach(w, mp_withdrawn, options);
}

}  // namespace

void write_nlri_prefix(ByteWriter& w, const net::Prefix& p) {
  w.u8(static_cast<std::uint8_t>(p.length()));
  const int nbytes = (p.length() + 7) / 8;
  w.bytes(std::span(p.address().bytes().data(), static_cast<std::size_t>(nbytes)));
}

net::Prefix read_nlri_prefix(ByteReader& r, net::IpFamily family) {
  const int len = r.u8();
  if (len > family_bits(family)) throw DecodeError("NLRI prefix length out of range");
  const int nbytes = (len + 7) / 8;
  std::uint8_t buf[16] = {};
  const auto raw = r.bytes(static_cast<std::size_t>(nbytes));
  std::memcpy(buf, raw.data(), raw.size());
  return net::Prefix(net::IpAddress::from_bytes(family, buf), len);
}

void encode_path_attributes(ByteWriter& w, const bgp::PathAttributes& attrs) {
  encode_attrs(w, attrs, /*two_byte_as_path=*/false, {}, {}, UpdateEncodeOptions{});
}

namespace {

/// The decoded AFI/SAFI prelude of an MP attribute.
struct MpFamily {
  net::IpFamily family;
  bool labeled;  ///< SAFI 128: NLRI carry a label stack + RD prefix
};

/// Reads the shared AFI/SAFI prelude of an MP attribute. Anything but
/// v4/v6 unicast or labeled VPN is a shape we do not model.
MpFamily read_mp_family(ByteReader& body, const char* attr_name) {
  const std::uint16_t afi = body.u16();
  const std::uint8_t safi = body.u8();
  if ((afi != kAfiIpv4 && afi != kAfiIpv6) ||
      (safi != kSafiUnicast && safi != kSafiMplsVpn)) {
    throw UnsupportedRecord(std::string("unsupported ") + attr_name + " AFI/SAFI");
  }
  return {afi == kAfiIpv4 ? net::IpFamily::kIpv4 : net::IpFamily::kIpv6,
          safi == kSafiMplsVpn};
}

/// Reads one SAFI 128 NLRI (RFC 8277 §2): the length byte counts the
/// label stack, the route distinguisher, AND the prefix bits. The label
/// stack is skipped entry by entry until the bottom-of-stack bit (or the
/// withdraw-compat 0x800000 value, which has BoS clear); the RD is
/// skipped whole. Only the bare prefix survives — this AS-level model
/// has no VRFs, and a VPN hijack of owned space is still a hijack of the
/// prefix.
net::Prefix read_labeled_nlri_prefix(ByteReader& r, net::IpFamily family) {
  int bits = r.u8();
  for (;;) {
    if (bits < kVpnLabelBits) {
      throw DecodeError("labeled NLRI shorter than a label-stack entry");
    }
    std::uint32_t entry = static_cast<std::uint32_t>(r.u8()) << 16;
    entry |= static_cast<std::uint32_t>(r.u8()) << 8;
    entry |= r.u8();
    bits -= kVpnLabelBits;
    if ((entry & 0x1) != 0 || entry == kVpnWithdrawLabel) break;
  }
  if (bits < kVpnRdBits) {
    throw DecodeError("labeled NLRI shorter than a route distinguisher");
  }
  r.bytes(kVpnRdBits / 8);  // route distinguisher: not modeled
  bits -= kVpnRdBits;
  if (bits > family_bits(family)) throw DecodeError("NLRI prefix length out of range");
  const int nbytes = (bits + 7) / 8;
  std::uint8_t buf[16] = {};
  const auto raw = r.bytes(static_cast<std::size_t>(nbytes));
  std::memcpy(buf, raw.data(), raw.size());
  return net::Prefix(net::IpAddress::from_bytes(family, buf), bits);
}

}  // namespace

void decode_path_attributes_into(ByteReader& attrs_reader, bgp::PathAttributes& out,
                                 bool two_byte_as_path,
                                 std::vector<bgp::Asn>& hops_scratch,
                                 std::vector<bgp::Asn>& as4_scratch,
                                 MpNlriScratch* mp) {
  out.reset();
  hops_scratch.clear();
  as4_scratch.clear();
  if (mp != nullptr) mp->clear();
  bool have_as4 = false;
  while (!attrs_reader.done()) {
    const std::uint8_t flags = attrs_reader.u8();
    const std::uint8_t type = attrs_reader.u8();
    const std::size_t len =
        (flags & kFlagExtendedLen) != 0 ? attrs_reader.u16() : attrs_reader.u8();
    ByteReader body = attrs_reader.sub(len);
    switch (type) {
      case kAttrOrigin: {
        const std::uint8_t o = body.u8();
        if (o > 2) throw DecodeError("bad ORIGIN value");
        out.origin = static_cast<bgp::Origin>(o);
        break;
      }
      case kAttrAsPath: {
        while (!body.done()) {
          const std::uint8_t seg_type = body.u8();
          const std::uint8_t count = body.u8();
          if (seg_type != kAsSequence) {
            throw UnsupportedRecord("unsupported AS_PATH segment");
          }
          for (int i = 0; i < count; ++i) {
            hops_scratch.push_back(two_byte_as_path ? body.u16() : body.u32());
          }
        }
        break;
      }
      case kAttrAs4Path: {
        // Always 4-byte hops, regardless of the speaker's AS_PATH width.
        while (!body.done()) {
          const std::uint8_t seg_type = body.u8();
          const std::uint8_t count = body.u8();
          if (seg_type != kAsSequence) {
            throw UnsupportedRecord("unsupported AS4_PATH segment");
          }
          for (int i = 0; i < count; ++i) as4_scratch.push_back(body.u32());
        }
        have_as4 = true;
        break;
      }
      case kAttrNextHop:
        break;  // intentionally ignored (AS-level model)
      case kAttrMpReach: {
        // With no staging area (TABLE_DUMP_V2 RIB entries, where RFC 6396
        // abbreviates this attribute to a bare next hop) skip it whole —
        // body was fully consumed by sub() above.
        if (mp == nullptr) break;
        const MpFamily fam = read_mp_family(body, "MP_REACH_NLRI");
        const std::uint8_t nh_len = body.u8();
        // Unicast v4: 4, or 16/32 for v4-NLRI-over-v6-next-hop (RFC 8950
        // — the next hop is discarded unmodeled, the NLRI is ordinary v4
        // unicast). Unicast v6: 16, or 32 with the link-local slot.
        // Labeled VPN prepends the 8-byte RD to each next hop
        // (RFC 4364 §4.3.2 / RFC 4659 §3.2.1): v4 12, or 24 over a v6
        // next hop; v6 24, or 48 with the link-local slot.
        const bool nh_ok =
            fam.labeled ? (fam.family == net::IpFamily::kIpv4
                               ? (nh_len == 12 || nh_len == 24)
                               : (nh_len == 24 || nh_len == 48))
                        : (fam.family == net::IpFamily::kIpv4
                               ? (nh_len == 4 || nh_len == 16 || nh_len == 32)
                               : (nh_len == 16 || nh_len == 32));
        if (!nh_ok) throw DecodeError("bad MP_REACH_NLRI next-hop length");
        body.bytes(nh_len);  // next hop(s): not modeled
        body.u8();           // reserved
        while (!body.done()) {
          mp->announced.push_back(fam.labeled
                                      ? read_labeled_nlri_prefix(body, fam.family)
                                      : read_nlri_prefix(body, fam.family));
        }
        break;
      }
      case kAttrMpUnreach: {
        if (mp == nullptr) break;
        const MpFamily fam = read_mp_family(body, "MP_UNREACH_NLRI");
        while (!body.done()) {
          mp->withdrawn.push_back(fam.labeled
                                      ? read_labeled_nlri_prefix(body, fam.family)
                                      : read_nlri_prefix(body, fam.family));
        }
        break;
      }
      case kAttrMed:
        out.med = body.u32();
        break;
      case kAttrLocalPref:
        out.local_pref = body.u32();
        break;
      case kAttrCommunity: {
        while (!body.done()) {
          bgp::Community c;
          c.asn = body.u16();
          c.value = body.u16();
          out.communities.push_back(c);
        }
        break;
      }
      default:
        break;  // unknown attributes are skipped (already consumed by sub())
    }
  }
  // RFC 6793 §4.2.3 merge: the AS4_PATH rewrites the tail of the AS_PATH;
  // any excess leading AS_PATH hops (added by old speakers after the
  // AS4_PATH was attached) are kept; an AS4_PATH longer than the AS_PATH
  // is bogus and ignored wholesale. The merge only applies to 2-byte
  // speakers: a 4-byte AS_PATH is already authoritative, and a stale
  // propagated AS4_PATH riding along a MESSAGE_AS4 record must not
  // overwrite it (§4.2.3 "NEW BGP speaker ... MUST NOT" consult it).
  if (two_byte_as_path && have_as4 && as4_scratch.size() <= hops_scratch.size()) {
    std::copy(as4_scratch.begin(), as4_scratch.end(),
              hops_scratch.end() - static_cast<std::ptrdiff_t>(as4_scratch.size()));
  }
  out.as_path.assign(hops_scratch.data(), hops_scratch.size());
}

namespace {

std::vector<std::uint8_t> encode_bgp_update_impl(const bgp::UpdateMessage& update,
                                                 bool two_byte_as_path,
                                                 const UpdateEncodeOptions& options) {
  // Split by family: v4 prefixes use the classic WITHDRAWN/NLRI fields,
  // v6 prefixes the MP_REACH/MP_UNREACH attributes (RFC 4760).
  std::vector<net::Prefix> v6_announced;
  std::vector<net::Prefix> v6_withdrawn;
  for (const auto& p : update.announced) {
    if (!p.is_v4()) v6_announced.push_back(p);
  }
  for (const auto& p : update.withdrawn) {
    if (!p.is_v4()) v6_withdrawn.push_back(p);
  }

  ByteWriter w;
  // 16-byte marker of all ones.
  for (int i = 0; i < 16; ++i) w.u8(0xFF);
  const std::size_t len_slot = w.reserve_u16();
  w.u8(kBgpMsgUpdate);
  // Withdrawn routes (v4 only; v6 withdrawals travel in MP_UNREACH).
  const std::size_t wd_slot = w.reserve_u16();
  const std::size_t wd_start = w.size();
  for (const auto& p : update.withdrawn) {
    if (p.is_v4()) write_nlri_prefix(w, p);
  }
  w.patch_u16(wd_slot, static_cast<std::uint16_t>(w.size() - wd_start));
  // Path attributes. A pure-v4 withdrawal carries none; a v6-withdraw-only
  // update carries a lone MP_UNREACH attribute (the real withdraw shape).
  const std::size_t attrs_slot = w.reserve_u16();
  const std::size_t attrs_start = w.size();
  if (!update.announced.empty()) {
    encode_attrs(w, update.attrs, two_byte_as_path, v6_announced, v6_withdrawn,
                 options);
  } else if (!v6_withdrawn.empty()) {
    write_mp_unreach(w, v6_withdrawn, options);
  }
  w.patch_u16(attrs_slot, static_cast<std::uint16_t>(w.size() - attrs_start));
  // Classic NLRI (v4 only).
  for (const auto& p : update.announced) {
    if (p.is_v4()) write_nlri_prefix(w, p);
  }
  w.patch_u16(len_slot, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_bgp_update(const bgp::UpdateMessage& update,
                                            const UpdateEncodeOptions& options) {
  return encode_bgp_update_impl(update, /*two_byte_as_path=*/false, options);
}

void write_raw_record(ByteWriter& writer, RecordType type, std::uint16_t subtype,
                      SimTime timestamp, std::span<const std::uint8_t> body) {
  const auto micros = timestamp.as_micros();
  writer.u32(static_cast<std::uint32_t>(micros / 1'000'000));
  writer.u16(static_cast<std::uint16_t>(type));
  writer.u16(subtype);
  if (type == RecordType::kBgp4mpEt) {
    // The microsecond field counts toward the record length (RFC 6396 §3).
    writer.u32(static_cast<std::uint32_t>(body.size() + 4));
    writer.u32(static_cast<std::uint32_t>(micros % 1'000'000));
  } else {
    writer.u32(static_cast<std::uint32_t>(body.size()));
  }
  writer.bytes(body);
}

namespace {

/// The BGP4MP peer/local address block: AFI tracks the peer's transport
/// family — a v6 session records 16-byte addresses (RFC 6396 §4.4).
void write_bgp4mp_addresses(ByteWriter& body, const net::IpAddress& peer_ip) {
  if (peer_ip.is_v4()) {
    body.u16(1);  // address family: IPv4
    body.u32(peer_ip.v4_value());
    body.u32(0);  // local IP (collector); not modeled
  } else {
    body.u16(2);  // address family: IPv6
    body.bytes(std::span(peer_ip.bytes().data(), 16));
    for (int i = 0; i < 16; ++i) body.u8(0);  // local IP; not modeled
  }
}

}  // namespace

std::vector<std::uint8_t> encode_update_record(const UpdateRecord& rec,
                                               const UpdateEncodeOptions& options) {
  ByteWriter body;
  body.u32(rec.peer_asn);
  body.u32(rec.local_asn);
  body.u16(0);  // interface index
  write_bgp4mp_addresses(body, rec.peer_ip);
  const auto msg = encode_bgp_update(rec.update, options);
  body.bytes(msg);

  ByteWriter out;
  write_raw_record(out, RecordType::kBgp4mpEt,
                   static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4), rec.timestamp,
                   body.data());
  return out.take();
}

std::vector<std::uint8_t> encode_update_record_as2(const UpdateRecord& rec,
                                                   const UpdateEncodeOptions& options) {
  const auto as2 = [](bgp::Asn asn) {
    return static_cast<std::uint16_t>(asn > 0xFFFF ? kAsTrans : asn);
  };
  ByteWriter body;
  body.u16(as2(rec.peer_asn));
  body.u16(as2(rec.local_asn));
  body.u16(0);  // interface index
  write_bgp4mp_addresses(body, rec.peer_ip);
  const auto msg = encode_bgp_update_impl(rec.update, /*two_byte_as_path=*/true, options);
  body.bytes(msg);

  ByteWriter out;
  write_raw_record(out, RecordType::kBgp4mpEt,
                   static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage), rec.timestamp,
                   body.data());
  return out.take();
}

std::vector<std::uint8_t> encode_update_record_as_set(const UpdateRecord& rec) {
  UpdateEncodeOptions options;
  options.as_set_path = true;
  return encode_update_record(rec, options);
}

std::vector<std::uint8_t> encode_table_dump(const std::vector<RibEntryRecord>& entries,
                                            SimTime snapshot_time) {
  // Build the peer index: unique peer ASNs in first-appearance order.
  std::vector<bgp::Asn> peers;
  auto peer_index = [&peers](bgp::Asn asn) -> std::uint16_t {
    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (peers[i] == asn) return static_cast<std::uint16_t>(i);
    }
    peers.push_back(asn);
    return static_cast<std::uint16_t>(peers.size() - 1);
  };
  struct Indexed {
    std::uint16_t peer;
    const RibEntryRecord* rec;
  };
  std::vector<Indexed> indexed;
  indexed.reserve(entries.size());
  for (const auto& e : entries) indexed.push_back({peer_index(e.peer_asn), &e});

  ByteWriter out;
  // PEER_INDEX_TABLE
  {
    ByteWriter body;
    body.u32(0);  // collector BGP ID
    body.u16(0);  // view name length (empty)
    body.u16(static_cast<std::uint16_t>(peers.size()));
    for (const auto asn : peers) {
      body.u8(0x02);  // peer type: AS4, IPv4
      body.u32(0);    // peer BGP ID
      body.u32(0);    // peer IP (not modeled)
      body.u32(asn);
    }
    write_raw_record(out, RecordType::kTableDumpV2,
                     static_cast<std::uint16_t>(TableDumpV2Subtype::kPeerIndexTable),
                     snapshot_time, body.data());
  }
  // One RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record per run of
  // consecutive same-prefix entries — the real collector shape (one
  // record per prefix carrying one entry per peer), which is also what
  // makes RIB decode fast: the prefix parses once per record. Sequence
  // numbers increase across both families, matching collector output.
  std::uint32_t sequence = 0;
  for (std::size_t i = 0; i < indexed.size();) {
    const net::Prefix& prefix = indexed[i].rec->route.prefix;
    std::size_t run_end = i + 1;
    while (run_end < indexed.size() &&
           indexed[run_end].rec->route.prefix == prefix) {
      ++run_end;
    }
    ByteWriter body;
    body.u32(sequence++);
    write_nlri_prefix(body, prefix);
    body.u16(static_cast<std::uint16_t>(run_end - i));  // entry count
    for (std::size_t k = i; k < run_end; ++k) {
      const auto& ix = indexed[k];
      body.u16(ix.peer);
      body.u32(static_cast<std::uint32_t>(ix.rec->timestamp.as_micros() / 1'000'000));
      const std::size_t attr_slot = body.reserve_u16();
      const std::size_t attr_start = body.size();
      encode_path_attributes(body, ix.rec->route.attrs);
      body.patch_u16(attr_slot, static_cast<std::uint16_t>(body.size() - attr_start));
    }
    const auto subtype = prefix.is_v4() ? TableDumpV2Subtype::kRibIpv4Unicast
                                        : TableDumpV2Subtype::kRibIpv6Unicast;
    write_raw_record(out, RecordType::kTableDumpV2, static_cast<std::uint16_t>(subtype),
                     snapshot_time, body.data());
    i = run_end;
  }
  return out.take();
}

}  // namespace artemis::mrt
