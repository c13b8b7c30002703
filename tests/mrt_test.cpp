// MRT wire format: every encoder in mrt/mrt.hpp round-trips through the
// one decoder, ObservationConverter, against the observations built from
// the encoded structs (mrt_expected.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "mrt/bytes.hpp"
#include "mrt/mrt.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt_expected.hpp"

namespace artemis::mrt {
namespace {

// ------------------------------------------------------------------ bytes

TEST(BytesTest, WriterBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090A0B0C0D0E0FULL);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 15u);
  EXPECT_EQ(d[0], 0x01);
  EXPECT_EQ(d[1], 0x02);
  EXPECT_EQ(d[2], 0x03);
  EXPECT_EQ(d[3], 0x04);
  EXPECT_EQ(d[6], 0x07);
  EXPECT_EQ(d[7], 0x08);
  EXPECT_EQ(d[14], 0x0F);
}

TEST(BytesTest, ReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.u16(1);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u16(), DecodeError);
}

TEST(BytesTest, PatchSlots) {
  ByteWriter w;
  const auto s16 = w.reserve_u16();
  const auto s32 = w.reserve_u32();
  w.u8(0xAA);
  w.patch_u16(s16, 0x1234);
  w.patch_u32(s32, 0x56789ABC);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x56789ABCu);
  EXPECT_EQ(r.u8(), 0xAA);
}

TEST(BytesTest, SubReaderConsumes) {
  ByteWriter w;
  w.u32(0x01020304);
  w.u8(0xFF);
  ByteReader r(w.data());
  ByteReader sub = r.sub(4);
  EXPECT_EQ(sub.u32(), 0x01020304u);
  EXPECT_TRUE(sub.done());
  EXPECT_EQ(r.u8(), 0xFF);
}

// ------------------------------------------------------- round-trip kit

void append(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

UpdateRecord record_of(bgp::UpdateMessage update, double at_seconds = 100) {
  UpdateRecord rec;
  rec.peer_asn = update.sender;
  rec.local_asn = 64512;
  rec.peer_ip = net::IpAddress::v4(0x0A000000 | (update.sender & 0xFFFF));
  rec.timestamp = SimTime::at_seconds(at_seconds);
  rec.update = std::move(update);
  return rec;
}

/// Encodes `rec`, converts it back, and compares with `rec` itself.
void expect_round_trip(const UpdateRecord& rec, const UpdateEncodeOptions& options = {}) {
  const auto converted = convert(encode_update_record(rec, options));
  EXPECT_TRUE(converted.stats.clean()) << converted.stats.error;
  EXPECT_EQ(converted.stats.records, 1u);
  expect_observations(converted.obs, expected_observations(rec));
}

/// A BGP4MP_ET/MESSAGE_AS4 record whose MRT envelope is length-consistent
/// around `message`, whatever `message` holds.
std::vector<std::uint8_t> record_with_message(std::span<const std::uint8_t> message) {
  ByteWriter body;
  body.u32(64501);       // peer AS
  body.u32(64512);       // local AS
  body.u16(0);           // interface index
  body.u16(1);           // AFI: IPv4
  body.u32(0x0A000001);  // peer IP
  body.u32(0);           // local IP
  body.bytes(message);
  ByteWriter out;
  write_raw_record(out, RecordType::kBgp4mpEt,
                   static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4),
                   SimTime::at_seconds(200), body.data());
  return out.take();
}

// ------------------------------------------------------------- BGP UPDATE

bgp::UpdateMessage sample_update() {
  bgp::UpdateMessage u;
  u.sender = 65010;
  u.attrs.as_path = bgp::AsPath({65010, 65020, 65030});
  u.attrs.origin = bgp::Origin::kEgp;
  u.attrs.local_pref = 250;
  u.attrs.med = 17;
  u.attrs.communities = {{65010, 100}, {65010, 200}};
  u.announced = {net::Prefix::must_parse("10.0.0.0/23"),
                 net::Prefix::must_parse("10.0.2.0/24")};
  u.withdrawn = {net::Prefix::must_parse("192.0.2.0/24")};
  return u;
}

/// Every proper prefix of `message`, sealed in a length-consistent MRT
/// envelope after one good record: the converter must stop the file with
/// an error, keep the good record's observations and emit none from the
/// cut one. (The BGP header's total-length field makes every cut
/// detectable.)
void expect_every_cut_rejected(const std::vector<std::uint8_t>& message) {
  const auto good = encode_update_record(record_of(sample_update()));
  const std::size_t kept = convert(good).obs.size();
  ASSERT_GT(kept, 0u);
  for (std::size_t cut = 0; cut < message.size(); ++cut) {
    auto bytes = good;
    append(bytes, record_with_message({message.data(), cut}));
    const auto converted = convert(bytes);
    EXPECT_FALSE(converted.stats.error.empty()) << "cut=" << cut;
    EXPECT_FALSE(converted.stats.truncated) << "cut=" << cut;
    EXPECT_EQ(converted.stats.records, 1u) << "cut=" << cut;
    EXPECT_EQ(converted.obs.size(), kept) << "cut=" << cut;
  }
}

TEST(BgpUpdateCodecTest, RoundTripFull) { expect_round_trip(record_of(sample_update())); }

TEST(BgpUpdateCodecTest, PureWithdrawalHasNoAttributes) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.withdrawn = {net::Prefix::must_parse("10.0.0.0/8")};
  expect_round_trip(record_of(u));
  // On the wire: marker, length, type, a 2-byte withdrawn block, then a
  // zero attribute length.
  const auto bytes = encode_bgp_update(u);
  ByteReader probe(bytes);
  probe.bytes(16 + 2 + 1);
  EXPECT_EQ(probe.u16(), 2u);  // one /8: length byte + one address byte
  probe.bytes(2);
  EXPECT_EQ(probe.u16(), 0u);  // no path attributes
  EXPECT_TRUE(probe.done());
}

TEST(BgpUpdateCodecTest, ZeroLengthPrefixEncodes) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.attrs.as_path = bgp::AsPath({1});
  u.announced = {net::Prefix::must_parse("0.0.0.0/0")};
  expect_round_trip(record_of(u));
}

TEST(BgpUpdateCodecTest, OddPrefixLengthsPackTightly) {
  // /23 must consume 3 NLRI bytes, /9 two, /32 four + 1 length byte each.
  for (const auto text : {"10.0.0.0/23", "10.128.0.0/9", "1.2.3.4/32", "128.0.0.0/1"}) {
    SCOPED_TRACE(text);
    bgp::UpdateMessage u;
    u.sender = 1;
    u.attrs.as_path = bgp::AsPath({1});
    u.announced = {net::Prefix::must_parse("0.0.0.0/0")};
    const auto length_byte_only = encode_bgp_update(u);
    u.announced = {net::Prefix::must_parse(text)};
    EXPECT_EQ(encode_bgp_update(u).size(),
              length_byte_only.size() + (u.announced[0].length() + 7) / 8);
    expect_round_trip(record_of(u));
  }
}

TEST(BgpUpdateCodecTest, BadMarkerRejected) {
  auto bad = encode_update_record(record_of(sample_update()));
  // header(12) + ET micros(4) + BGP4MP preamble(20) = first marker byte.
  bad[12 + 4 + 20] = 0x00;
  const auto converted = convert(bad);
  EXPECT_EQ(converted.stats.error, "bad BGP marker");
  EXPECT_EQ(converted.stats.records, 0u);
  EXPECT_TRUE(converted.obs.empty());
}

TEST(BgpUpdateCodecTest, TruncationRejected) {
  expect_every_cut_rejected(encode_bgp_update(sample_update()));
}

// --------------------------------------------------------------- BGP4MP

TEST(UpdateRecordTest, RoundTripWithMicrosecondTimestamp) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.local_asn = 12654;
  rec.peer_ip = net::IpAddress::parse("203.0.113.7").value();
  rec.timestamp = SimTime::at_micros(1234567890123456LL);
  rec.update = sample_update();
  rec.update.sender = rec.peer_asn;
  expect_round_trip(rec);  // event_time keeps microsecond precision

  // The envelope: BGP4MP_ET header, then local AS and peer address at
  // their RFC 6396 §4.4 offsets (the converter does not model them).
  const auto bytes = encode_update_record(rec);
  ByteReader r(bytes);
  EXPECT_EQ(r.u32(), 1234567890u);  // seconds
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(RecordType::kBgp4mpEt));
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4));
  EXPECT_EQ(r.u32(), bytes.size() - 12);
  EXPECT_EQ(r.u32(), 123456u);  // microseconds
  EXPECT_EQ(r.u32(), rec.peer_asn);
  EXPECT_EQ(r.u32(), rec.local_asn);
  r.u16();                      // interface index
  EXPECT_EQ(r.u16(), 1u);       // AFI: IPv4
  EXPECT_EQ(r.u32(), rec.peer_ip.v4_value());
}

TEST(UpdateRecordTest, WrongSubtypeRejected) {
  // A BGP4MP subtype that is not a message (a state change, say) is never
  // decoded as an UPDATE: it yields no observations, and the next record
  // still converts.
  auto bytes = encode_update_record(record_of(sample_update()));
  bytes[6] = 0;
  bytes[7] = 99;  // subtype
  const auto good = encode_update_record(record_of(sample_update(), 101));
  append(bytes, good);
  const auto converted = convert(bytes);
  EXPECT_TRUE(converted.stats.clean());
  EXPECT_EQ(converted.stats.records, 2u);
  expect_observations(converted.obs,
                      expected_observations(record_of(sample_update(), 101)));
}

TEST(MrtFramingTest, EmptyStreamConvertsNothing) {
  const auto converted = convert({});
  EXPECT_TRUE(converted.stats.clean());
  EXPECT_EQ(converted.stats.records, 0u);
  EXPECT_TRUE(converted.obs.empty());
}

TEST(MrtFramingTest, TruncatedHeaderReportsTruncated) {
  const std::uint8_t junk[5] = {1, 2, 3, 4, 5};
  const auto converted = convert(junk);
  EXPECT_TRUE(converted.stats.truncated);
  EXPECT_TRUE(converted.stats.error.empty());
  EXPECT_EQ(converted.stats.records, 0u);
  EXPECT_EQ(converted.stats.bytes_consumed, 0u);
}

// ------------------------------------------------------------ fan-out

TEST(MrtConvertFanOutTest, UpdatesFanOutToObservations) {
  UpdateRecord rec = record_of(sample_update());
  rec.peer_asn = 64501;
  const auto converted = convert(encode_update_record(rec));
  ASSERT_EQ(converted.obs.size(), 3u);  // 2 announces + 1 withdraw
  EXPECT_EQ(converted.obs[0].origin_as(), 65030u);
  EXPECT_EQ(converted.obs[2].prefix.to_string(), "192.0.2.0/24");
  expect_observations(converted.obs, expected_observations(rec));
}

TEST(MrtConvertFanOutTest, TableDumpFansOutRibEntries) {
  std::vector<RibEntryRecord> entries;
  for (int i = 0; i < 3; ++i) {
    RibEntryRecord entry;
    entry.peer_asn = 100 + static_cast<bgp::Asn>(i % 2);  // two distinct peers
    entry.timestamp = SimTime::at_seconds(50);            // originated time
    entry.route.prefix = net::Prefix::must_parse("10.0." + std::to_string(i) + ".0/24");
    entry.route.attrs.as_path = bgp::AsPath({100, 200});
    entries.push_back(entry);
  }
  const auto dump_time = SimTime::at_seconds(7200);
  const auto converted = convert(encode_table_dump(entries, dump_time));
  EXPECT_TRUE(converted.stats.clean());
  EXPECT_EQ(converted.stats.records, 4u);  // peer index + one per prefix
  expect_observations(converted.obs, expected_observations(entries, dump_time));
}

TEST(MrtConvertFanOutTest, MixedStream) {
  RibEntryRecord entry;
  entry.peer_asn = 7;
  entry.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  entry.route.attrs.as_path = bgp::AsPath({7, 8});
  std::vector<std::uint8_t> stream = encode_table_dump({entry}, SimTime::zero());
  UpdateRecord rec = record_of(sample_update());
  rec.peer_asn = 9;
  append(stream, encode_update_record(rec));

  auto expected = expected_observations({entry}, SimTime::zero());
  for (auto& obs : expected_observations(rec)) expected.push_back(std::move(obs));
  const auto converted = convert(stream);
  EXPECT_TRUE(converted.stats.clean());
  expect_observations(converted.obs, expected);
}

TEST(MrtConvertFanOutTest, UnknownRecordTypesSkipped) {
  ByteWriter stream;
  const std::uint8_t body[4] = {1, 2, 3, 4};
  write_raw_record(stream, static_cast<RecordType>(99), 0, SimTime::zero(), body);
  const UpdateRecord rec = record_of(sample_update());
  stream.bytes(encode_update_record(rec));
  const auto converted = convert(stream.data());
  EXPECT_TRUE(converted.stats.clean());
  EXPECT_EQ(converted.stats.records, 2u);  // junk record passed over whole
  expect_observations(converted.obs, expected_observations(rec));
}

TEST(MrtConvertFanOutTest, RibEntryWithUnknownPeerStopsFile) {
  // A RIB record without a preceding PEER_INDEX_TABLE is malformed: the
  // file stops there with an error, never a guessed vantage.
  RibEntryRecord entry;
  entry.peer_asn = 7;
  entry.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  entry.route.attrs.as_path = bgp::AsPath({7});
  const auto bytes = encode_table_dump({entry}, SimTime::zero());
  // Strip the first record (the peer index): 12-byte header + body
  // length at offset 8.
  ByteReader r(bytes);
  r.bytes(8);
  const std::size_t cut = 12 + r.u32();
  const std::span<const std::uint8_t> without_index(bytes.data() + cut,
                                                    bytes.size() - cut);
  const auto converted = convert(without_index);
  EXPECT_EQ(converted.stats.error, "RIB entry references unknown peer");
  EXPECT_EQ(converted.stats.records, 0u);
  EXPECT_TRUE(converted.obs.empty());
}

TEST(MrtConvertFanOutTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/artemis_mrt_test.mrt";
  const UpdateRecord rec = record_of(sample_update());
  {
    const auto bytes = encode_update_record(rec);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ObservationConverter converter;
  std::vector<feeds::Observation> obs;
  const auto collect = [&](std::span<const feeds::Observation> batch) {
    obs.insert(obs.end(), batch.begin(), batch.end());
  };
  converter.begin_file();
  EXPECT_EQ(decompress_file(path, [&](std::span<const std::uint8_t> chunk) {
              converter.feed(chunk, collect);
            }),
            "");
  EXPECT_TRUE(converter.finish_file(collect).clean());
  expect_observations(obs, expected_observations(rec));
  std::remove(path.c_str());
  EXPECT_THROW(decompress_file(path, [](std::span<const std::uint8_t>) {}),
               std::runtime_error);
}

// ------------------------------------------- pre-AS4 records & AS4_PATH

TEST(UpdateRecordTest, As2RoundTripMergesAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.local_asn = 0;
  rec.peer_ip = net::IpAddress::v4(0x0A000001);
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  // A wide ASN forces AS_TRANS + AS4_PATH on the 2-byte wire.
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000, 65030});

  const auto bytes = encode_update_record_as2(rec);
  EXPECT_EQ(ByteReader(std::span(bytes).subspan(6)).u16(),
            static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage));
  const auto converted = convert(bytes);
  EXPECT_TRUE(converted.stats.clean());
  expect_observations(converted.obs, expected_observations(rec));
  EXPECT_EQ(converted.obs[0].attrs.as_path.to_string(), "64501 200000 65030");
}

TEST(UpdateRecordTest, As2WithoutWideAsnsHasNoAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  rec.update.attrs.as_path = bgp::AsPath({64501, 65030});
  const auto with_narrow = encode_update_record_as2(rec);
  const UpdateRecord narrow = rec;
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000});
  const auto with_wide = encode_update_record_as2(rec);
  // The AS4_PATH attribute only appears when a hop was squashed.
  EXPECT_LT(with_narrow.size(), with_wide.size());
  expect_observations(convert(with_narrow).obs, expected_observations(narrow));
}

/// Builds a raw attribute block with independent AS_PATH (2-byte) and
/// AS4_PATH hop lists — the shapes encode_update_record_as2 can't emit.
std::vector<std::uint8_t> as2_attr_block(const std::vector<bgp::Asn>& as_path,
                                         const std::vector<bgp::Asn>& as4_path) {
  ByteWriter w;
  w.u8(0x40);  // transitive
  w.u8(2);     // AS_PATH
  w.u8(static_cast<std::uint8_t>(2 + 2 * as_path.size()));
  w.u8(2);  // AS_SEQUENCE
  w.u8(static_cast<std::uint8_t>(as_path.size()));
  for (const auto asn : as_path) w.u16(static_cast<std::uint16_t>(asn));
  if (!as4_path.empty()) {
    w.u8(0xC0);  // optional transitive
    w.u8(17);    // AS4_PATH
    w.u8(static_cast<std::uint8_t>(2 + 4 * as4_path.size()));
    w.u8(2);  // AS_SEQUENCE
    w.u8(static_cast<std::uint8_t>(as4_path.size()));
    for (const auto asn : as4_path) w.u32(asn);
  }
  return w.take();
}

TEST(PathAttributesTest, As4MergeKeepsExcessLeadingAsPathHops) {
  // RFC 6793 §4.2.3: an old speaker prepended itself AFTER the AS4_PATH
  // was attached, so AS_PATH is longer; the leading hop survives and the
  // tail comes from AS4_PATH.
  const auto block = as2_attr_block({64496, kAsTrans, 65030}, {200000, 65030});
  ByteReader r(block);
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/true, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 200000 65030");
}

TEST(PathAttributesTest, As4PathIgnoredForFourByteSpeakers) {
  // A MESSAGE_AS4 record can still carry a propagated (stale) AS4_PATH;
  // RFC 6793 §4.2.3: a 4-byte AS_PATH is authoritative and the AS4_PATH
  // must not overwrite it.
  ByteWriter w;
  w.u8(0x40);  // transitive AS_PATH, 4-byte hops
  w.u8(2);
  w.u8(2 + 4 * 2);
  w.u8(2);  // AS_SEQUENCE
  w.u8(2);
  w.u32(64496);
  w.u32(65030);
  w.u8(0xC0);  // stale AS4_PATH with different hops
  w.u8(17);
  w.u8(2 + 4 * 2);
  w.u8(2);
  w.u8(2);
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/false, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 65030");
}

TEST(PathAttributesTest, OverlongAs4PathIsIgnored) {
  // An AS4_PATH longer than the AS_PATH is bogus; RFC 6793 says fall
  // back to the plain AS_PATH.
  const auto block = as2_attr_block({64496, 65030}, {1, 2, 3});
  ByteReader r(block);
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/true, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 65030");
}

TEST(MrtConvertFanOutTest, As2UpdatesFanOutWithMergedPaths) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000});
  const auto converted = convert(encode_update_record_as2(rec));
  ASSERT_EQ(converted.obs.size(), 1u);
  EXPECT_EQ(converted.obs[0].vantage, 64501u);
  EXPECT_EQ(converted.obs[0].origin_as(), 200000u);
}

// ------------------------------------------------------- IPv6 RIB dumps

TEST(MrtConvertFanOutTest, Ipv6RibEntriesRoundTrip) {
  std::vector<RibEntryRecord> entries;
  RibEntryRecord v6;
  v6.peer_asn = 100;
  v6.timestamp = SimTime::at_seconds(50);
  v6.route.prefix = net::Prefix::must_parse("2001:db8::/32");
  v6.route.attrs.as_path = bgp::AsPath({100, 200});
  entries.push_back(v6);
  RibEntryRecord v4;
  v4.peer_asn = 100;
  v4.timestamp = SimTime::at_seconds(50);
  v4.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  v4.route.attrs.as_path = bgp::AsPath({100, 300});
  entries.push_back(v4);

  const auto dump_time = SimTime::at_seconds(7200);
  const auto converted = convert(encode_table_dump(entries, dump_time));
  EXPECT_TRUE(converted.stats.clean());
  expect_observations(converted.obs, expected_observations(entries, dump_time));
  EXPECT_EQ(converted.obs[0].origin_as(), 200u);
  EXPECT_EQ(converted.obs[1].origin_as(), 300u);
}

// ------------------------------------------------- MP_REACH / MP_UNREACH

bgp::UpdateMessage dual_stack_update() {
  bgp::UpdateMessage u;
  u.sender = 65010;
  u.attrs.as_path = bgp::AsPath({65010, 3356, 65001});
  u.announced = {net::Prefix::must_parse("10.0.0.0/23"),
                 net::Prefix::must_parse("2001:db8::/32"),
                 net::Prefix::must_parse("2001:db8:ffff::/48")};
  u.withdrawn = {net::Prefix::must_parse("192.0.2.0/24"),
                 net::Prefix::must_parse("2001:db8:dead::/48")};
  return u;
}

TEST(MpNlriCodecTest, DualStackRoundTripV4First) {
  // Decode order: classic v4 fields first, MP NLRI after — the expected
  // observations are built in exactly that order.
  expect_round_trip(record_of(dual_stack_update()));
}

TEST(MpNlriCodecTest, NextHop32RoundTrips) {
  // 32-byte next hop: global + link-local, the shape most RIS peers emit.
  UpdateEncodeOptions options;
  options.mp_next_hop_len = 32;
  const auto original = dual_stack_update();
  const auto bytes16 = encode_bgp_update(original);
  const auto bytes32 = encode_bgp_update(original, options);
  EXPECT_EQ(bytes32.size(), bytes16.size() + 16);  // exactly the extra next hop
  expect_round_trip(record_of(original), options);
}

TEST(MpNlriCodecTest, V6WithdrawOnlyUpdateCarriesLoneMpUnreach) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.withdrawn = {net::Prefix::must_parse("2001:db8::/32"),
                 net::Prefix::must_parse("2001:db8:1::/48")};
  expect_round_trip(record_of(u));
  // The attribute section holds exactly one attribute: MP_UNREACH_NLRI
  // (flags, type 15). Classic withdrawn-routes length must be zero.
  const auto bytes = encode_bgp_update(u);
  ByteReader probe(bytes);
  probe.bytes(16);       // marker
  probe.u16();           // length
  probe.u8();            // type
  EXPECT_EQ(probe.u16(), 0u);  // no classic withdrawn routes
  const std::uint16_t attrs_len = probe.u16();
  ByteReader attrs = probe.sub(attrs_len);
  attrs.u8();  // flags
  EXPECT_EQ(attrs.u8(), 15u);  // MP_UNREACH_NLRI
}

TEST(MpNlriCodecTest, As2RecordWithV6NlriMergesAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 70000;  // wide: AS_TRANS on the 2-byte wire
  rec.local_asn = 64512;
  rec.peer_ip = net::IpAddress::v4(0x0A000001);
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.sender = rec.peer_asn;
  rec.update.attrs.as_path = bgp::AsPath({70000, 3356, 65001});
  rec.update.announced = {net::Prefix::must_parse("2001:db8::/32")};
  const auto converted = convert(encode_update_record_as2(rec));
  ASSERT_EQ(converted.obs.size(), 1u);
  EXPECT_EQ(converted.obs[0].vantage, kAsTrans);  // header ASN is 2-byte on the wire
  EXPECT_EQ(converted.obs[0].prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(converted.obs[0].attrs.as_path, rec.update.attrs.as_path);  // AS4 merge
}

TEST(MpNlriCodecTest, V6PeerAddressRoundTrips) {
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.local_asn = 64512;
  rec.peer_ip = *net::IpAddress::parse("2001:db8::9");
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.sender = 9;
  rec.update.attrs.as_path = bgp::AsPath({9, 65001});
  rec.update.announced = {net::Prefix::must_parse("2001:db8:aaaa::/48")};
  // A v6 session records 16-byte peer/local addresses; the converter
  // must step over both to reach the message.
  expect_round_trip(rec);
  const auto bytes = encode_update_record(rec);
  ByteReader r(bytes);
  r.bytes(16 + 4 + 4 + 2);  // header + micros, peer AS, local AS, ifindex
  EXPECT_EQ(r.u16(), 2u);   // AFI: IPv6
  const auto peer_ip = r.bytes(16);
  EXPECT_TRUE(std::equal(peer_ip.begin(), peer_ip.end(), rec.peer_ip.bytes().begin()));
}

TEST(MpNlriCodecTest, V4NlriOverV6NextHopDecodes) {
  // RFC 8950: IPv4 unicast NLRI carried in MP_REACH with a 16-byte IPv6
  // next hop (v6-transport sessions). The next hop is unmodeled; the
  // NLRI must decode as ordinary v4 — not kill the record.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(4 + 16 + 1 + 4);  // afi+safi+nhlen byte, 16B next hop, reserved, /24 NLRI
  w.u16(1);    // AFI: IPv4
  w.u8(1);     // SAFI: unicast
  w.u8(16);    // next-hop length: IPv6
  for (int i = 0; i < 16; ++i) w.u8(0x20);
  w.u8(0);     // reserved
  w.u8(24);    // NLRI: 198.51.100.0/24
  w.u8(198);
  w.u8(51);
  w.u8(100);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.announced.size(), 1u);
  EXPECT_EQ(mp.announced[0], net::Prefix::must_parse("198.51.100.0/24"));
}

TEST(MpNlriCodecTest, UnknownMpAfiThrowsUnsupportedRecord) {
  // Hand-built attribute section: a lone MP_REACH_NLRI with AFI 25
  // (L2VPN) — recognized shape, unmodeled family.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(5);     // length
  w.u16(25);   // AFI: L2VPN
  w.u8(1);     // SAFI
  w.u8(0);     // next-hop length
  w.u8(0);     // reserved
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  EXPECT_THROW(
      decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
      UnsupportedRecord);
}

TEST(MpNlriCodecTest, MpAttributesSkippedWithoutScratch) {
  // RIB-entry context (mp == nullptr): MP attributes are skipped whole —
  // including the abbreviated RFC 6396 form that has no AFI/SAFI at all.
  ByteWriter w;
  w.u8(0x80);
  w.u8(14);
  w.u8(17);  // length: 1 next-hop-len byte + 16 next-hop bytes
  w.u8(16);
  for (int i = 0; i < 16; ++i) w.u8(0xAB);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  decode_path_attributes_into(r, attrs, false, hops, as4);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(attrs.as_path.empty());
}

// ------------------------------------------------- SAFI 128 labeled VPN

TEST(LabeledVpnCodecTest, RoundTripsThroughLabeledEncoding) {
  // The labeled-VPN wire shape (SAFI 128, label stack + RD on every
  // NLRI, RD-prefixed next hops) must decode back to the bare prefixes —
  // at both next-hop widths.
  for (const int nh : {16, 32}) {
    SCOPED_TRACE("nh=" + std::to_string(nh));
    UpdateEncodeOptions options;
    options.mp_labeled_vpn = true;
    options.mp_next_hop_len = nh;
    expect_round_trip(record_of(dual_stack_update()), options);
  }
}

TEST(LabeledVpnCodecTest, V4HandCraftedStackSkipsToThePrefix) {
  // VPN-IPv4 (AFI 1 / SAFI 128) with a TWO-entry label stack: only the
  // second entry has the bottom-of-stack bit, so the decoder must walk
  // the stack, then skip the RD, and surface the bare /24.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(3 + 1 + 12 + 1 + 1 + 6 + 8 + 3);  // prelude..NLRI
  w.u16(1);    // AFI: IPv4
  w.u8(128);   // SAFI: labeled VPN
  w.u8(12);    // next-hop length: RD + v4
  for (int i = 0; i < 12; ++i) w.u8(0x0A);
  w.u8(0);           // reserved
  w.u8(48 + 64 + 24);  // NLRI bits: two labels + RD + /24
  w.u8(0x00); w.u8(0x10); w.u8(0x00);  // label 256, BoS clear
  w.u8(0x00); w.u8(0x10); w.u8(0x11);  // label 257, BoS set
  for (int i = 0; i < 8; ++i) w.u8(0xBB);  // RD 48059:…, not modeled
  w.u8(198); w.u8(51); w.u8(100);          // 198.51.100.0/24
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.announced.size(), 1u);
  EXPECT_EQ(mp.announced[0], net::Prefix::must_parse("198.51.100.0/24"));
}

TEST(LabeledVpnCodecTest, WithdrawCompatLabelTerminatesTheStack) {
  // RFC 8277 §2.4: a withdraw's label field is 0x800000 — bottom-of-
  // stack CLEAR, so only the compat-value check can terminate the walk.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(15);    // MP_UNREACH_NLRI
  w.u8(3 + 1 + 3 + 8 + 3);
  w.u16(1);    // AFI: IPv4
  w.u8(128);   // SAFI: labeled VPN
  w.u8(24 + 64 + 24);
  w.u8(0x80); w.u8(0x00); w.u8(0x00);  // the compat label
  for (int i = 0; i < 8; ++i) w.u8(0);
  w.u8(203); w.u8(0); w.u8(113);  // 203.0.113.0/24
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.withdrawn.size(), 1u);
  EXPECT_EQ(mp.withdrawn[0], net::Prefix::must_parse("203.0.113.0/24"));
}

TEST(LabeledVpnCodecTest, MalformedLabeledNlriRejected) {
  // An NLRI length that cannot hold a label-stack entry (16 bits), and
  // one that holds a label but not the RD (24+32 bits), must both fail
  // cleanly — DecodeError, not a garbage prefix.
  for (const std::uint8_t bits : {std::uint8_t{16}, std::uint8_t{56}}) {
    ByteWriter w;
    w.u8(0x80);
    w.u8(15);  // MP_UNREACH_NLRI
    w.u8(static_cast<std::uint8_t>(3 + 1 + (bits + 7) / 8));
    w.u16(1);
    w.u8(128);
    w.u8(bits);
    for (int i = 0; i < (bits + 7) / 8; ++i) w.u8(0x05);
    ByteReader r(w.data());
    bgp::PathAttributes attrs;
    std::vector<bgp::Asn> hops, as4;
    MpNlriScratch mp;
    EXPECT_THROW(decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
                 DecodeError)
        << "bits=" << int(bits);
  }
}

TEST(LabeledVpnCodecTest, BadLabeledNextHopLengthRejected) {
  // SAFI 128 next hops are RD-prefixed: a bare 4-byte v4 next hop under
  // the labeled SAFI is malformed.
  ByteWriter w;
  w.u8(0x80);
  w.u8(14);  // MP_REACH_NLRI
  w.u8(3 + 1 + 4 + 1);
  w.u16(1);
  w.u8(128);
  w.u8(4);  // unicast-width next hop under SAFI 128
  for (int i = 0; i < 4; ++i) w.u8(0x0A);
  w.u8(0);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  EXPECT_THROW(decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
               DecodeError);
}

TEST(LabeledVpnCodecTest, EveryByteTruncationRejected) {
  // The full truncation matrix over a labeled dual-stack update: every
  // proper prefix of the message must stop the file, never mis-decode.
  UpdateEncodeOptions options;
  options.mp_labeled_vpn = true;
  expect_every_cut_rejected(encode_bgp_update(dual_stack_update(), options));
}

TEST(MpNlriCodecTest, AsSetSegmentThrowsUnsupportedRecord) {
  ByteWriter w;
  w.u8(0x40);  // transitive
  w.u8(2);     // AS_PATH
  w.u8(6);     // length
  w.u8(1);     // AS_SET
  w.u8(1);     // one hop
  w.u32(65001);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  EXPECT_THROW(decode_path_attributes_into(r, attrs, false, hops, as4),
               UnsupportedRecord);
}

TEST(MrtConvertFanOutTest, DualStackUpdateFansOutMpObservations) {
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.local_asn = 64512;
  rec.peer_ip = net::IpAddress::v4(0x0A000009);
  rec.timestamp = SimTime::at_seconds(50);
  rec.update.sender = 9;
  rec.update.attrs.as_path = bgp::AsPath({9, 65001});
  rec.update.announced = {net::Prefix::must_parse("10.0.0.0/24"),
                          net::Prefix::must_parse("2001:db8::/32")};
  rec.update.withdrawn = {net::Prefix::must_parse("2001:db8:dead::/48")};
  const auto converted = convert(encode_update_record(rec));
  ASSERT_EQ(converted.obs.size(), 3u);
  EXPECT_EQ(converted.obs[0].type, feeds::ObservationType::kAnnouncement);
  EXPECT_EQ(converted.obs[0].prefix, net::Prefix::must_parse("10.0.0.0/24"));
  EXPECT_EQ(converted.obs[1].type, feeds::ObservationType::kAnnouncement);
  EXPECT_EQ(converted.obs[1].prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(converted.obs[2].type, feeds::ObservationType::kWithdrawal);
  EXPECT_EQ(converted.obs[2].prefix, net::Prefix::must_parse("2001:db8:dead::/48"));
  expect_observations(converted.obs, expected_observations(rec));
}

}  // namespace
}  // namespace artemis::mrt
