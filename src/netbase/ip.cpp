#include "netbase/ip.hpp"

#include <cstdio>
#include <cstring>

namespace artemis::net {

IpAddress IpAddress::v4(std::uint32_t host_order) {
  IpAddress a;
  a.family_ = IpFamily::kIpv4;
  a.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
  a.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
  a.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
  a.bytes_[3] = static_cast<std::uint8_t>(host_order);
  return a;
}

IpAddress IpAddress::v6(std::uint64_t hi, std::uint64_t lo) {
  IpAddress a;
  a.family_ = IpFamily::kIpv6;
  for (int i = 0; i < 8; ++i) {
    a.bytes_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
    a.bytes_[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
  }
  return a;
}

IpAddress IpAddress::from_bytes(IpFamily family, const std::uint8_t* bytes) {
  IpAddress a;
  a.family_ = family;
  std::memcpy(a.bytes_.data(), bytes, family == IpFamily::kIpv4 ? 4 : 16);
  return a;
}

std::uint32_t IpAddress::v4_value() const {
  return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
         (static_cast<std::uint32_t>(bytes_[1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[2]) << 8) | static_cast<std::uint32_t>(bytes_[3]);
}

namespace {

// The parsers below run once per prefix of a config load (a 1M-prefix
// reload parses a million), so they split in place and allocate nothing.

std::optional<IpAddress> parse_v4(std::string_view text) {
  // One pass: exactly four dot-separated decimal octets.
  std::uint32_t value = 0;
  std::uint32_t octet = 0;
  int digits = 0;  // in the current octet
  int dots = 0;
  for (const char c : text) {
    if (c >= '0' && c <= '9') {
      // Reject leading zeros ("01") to keep representations canonical.
      if (digits == 1 && octet == 0) return std::nullopt;
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
      if (++digits > 3 || octet > 255) return std::nullopt;
    } else if (c == '.' && digits > 0 && dots < 3) {
      value = (value << 8) | octet;
      octet = 0;
      digits = 0;
      ++dots;
    } else {
      return std::nullopt;
    }
  }
  if (digits == 0 || dots != 3) return std::nullopt;
  return IpAddress::v4((value << 8) | octet);
}

std::optional<std::uint16_t> parse_hex16(std::string_view s) {
  if (s.empty() || s.size() > 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return static_cast<std::uint16_t>(value);
}

/// Parses the ':'-separated hex groups of `text` (empty text: none) into
/// `out`; false on a malformed group or more than eight.
bool parse_groups(std::string_view text, std::array<std::uint16_t, 8>& out,
                  std::size_t& count) {
  count = 0;
  if (text.empty()) return true;
  for (;;) {
    const std::size_t colon = text.find(':');
    const auto group = parse_hex16(text.substr(0, colon));
    if (!group || count == out.size()) return false;
    out[count++] = *group;
    if (colon == std::string_view::npos) return true;
    text.remove_prefix(colon + 1);
  }
}

std::optional<IpAddress> parse_v6(std::string_view text) {
  // Split around at most one "::".
  const std::size_t gap = text.find("::");
  std::string_view head_text = text;
  std::string_view tail_text;
  const bool has_gap = gap != std::string_view::npos;
  if (has_gap) {
    head_text = text.substr(0, gap);
    tail_text = text.substr(gap + 2);
    if (tail_text.find("::") != std::string_view::npos) return std::nullopt;
  }
  std::array<std::uint16_t, 8> head{};
  std::array<std::uint16_t, 8> tail{};
  std::size_t head_count = 0;
  std::size_t tail_count = 0;
  if (!parse_groups(head_text, head, head_count) ||
      !parse_groups(tail_text, tail, tail_count)) {
    return std::nullopt;
  }
  const std::size_t total = head_count + tail_count;
  if (has_gap) {
    if (total >= 8) return std::nullopt;  // "::" must compress >= 1 group
  } else if (total != 8) {
    return std::nullopt;
  }
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head_count; ++i) groups[i] = head[i];
  for (std::size_t i = 0; i < tail_count; ++i) groups[8 - tail_count + i] = tail[i];
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (int i = 0; i < 4; ++i) hi = (hi << 16) | groups[static_cast<std::size_t>(i)];
  for (int i = 4; i < 8; ++i) lo = (lo << 16) | groups[static_cast<std::size_t>(i)];
  return IpAddress::v6(hi, lo);
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  return parse_v4(text);
}

std::string IpAddress::to_string() const {
  char buf[64];
  if (is_v4()) {
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", bytes_[0], bytes_[1], bytes_[2], bytes_[3]);
    return buf;
  }
  // RFC 5952: compress the longest run of zero groups (leftmost on ties).
  std::uint16_t groups[8];
  for (int i = 0; i < 8; ++i) {
    const auto idx = static_cast<std::size_t>(2 * i);
    groups[i] = static_cast<std::uint16_t>((bytes_[idx] << 8) | bytes_[idx + 1]);
  }
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;  // single zero group is not compressed
  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i == 8) return out;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof(buf), "%x", groups[i]);
    out += buf;
    ++i;
  }
  return out;
}

}  // namespace artemis::net
