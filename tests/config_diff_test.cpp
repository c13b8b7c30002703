// Differential test: the one-pass config loader against the DOM loader.
//
// Config::from_json_text reads the text with json::Reader and never
// builds a json::Value. config_oracle::from_json_text is the loader it
// replaced (json::parse, then a walk over the tree). Both run over the
// repository's sample configs, benchmark-shaped v1 and v2 configs and the
// serializer's own output, then over thousands of seeded byte and token
// mutations of them. Each document must either load on both sides to the
// same to_json() and tenant count, or be rejected on both sides with the
// same exception type.
//
// One difference is deliberate and excluded by name, kRepeatedMember: a
// DOM keeps the last of two same-named members, the one-pass loader
// rejects a config member that appears twice in one object. A case is
// excluded only when the document really repeats a member name and the
// loader's JsonError says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "artemis/config.hpp"
#include "config_oracle.hpp"
#include "json/reader.hpp"
#include "util/rng.hpp"

namespace artemis::core {
namespace {

constexpr std::uint64_t kSeed = 20161;
constexpr int kMutationsPerDocument = 500;
constexpr std::string_view kRepeatedMember = "repeated member";

/// The benchmark's config shape (perfbench gen::Ownership, small scale):
/// 14 prefixes for tenant "default", v1; the reload text is v2 and adds
/// tenant "late" with 2 more.
std::string bench_shaped(bool reload) {
  const auto entry = [](const std::string& prefix, int origin) {
    return "{\"prefix\":\"" + prefix + "\",\"origins\":[" + std::to_string(origin) + "]}";
  };
  std::string prefixes;
  for (int i = 0; i < 14; ++i) {
    if (i != 0) prefixes += ',';
    prefixes += entry(i < 10 ? "10." + std::to_string(16 * i) + ".0.0/16"
                             : "2001:db8:" + std::to_string(i - 9) + "000::/40",
                      65001);
  }
  const std::string mitigation =
      "\"mitigation\":{\"deaggregation_floor\":24,\"reannounce_exact\":true,"
      "\"auto_mitigate\":true}";
  if (!reload) return "{\"prefixes\":[" + prefixes + "]," + mitigation + "}";
  return "{\"schema_version\":2,\"tenants\":[{\"name\":\"default\",\"prefixes\":[" +
         prefixes + "]," + mitigation + "},{\"name\":\"late\",\"prefixes\":[" +
         entry("10.200.0.0/16", 65100) + "," + entry("2001:db8:f000::/40", 65100) + "]," +
         mitigation + "}]}";
}

std::string read_repo_file(const std::string& name) {
  const auto path = std::filesystem::path(__FILE__).parent_path().parent_path() / name;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> base_documents() {
  std::vector<std::string> docs = {
      read_repo_file("artemis_sample_config.json"),
      bench_shaped(false),
      bench_shaped(true),
      R"({
  "prefixes": [
    {"prefix": "10.0.0.0/23", "origins": [65001], "neighbors": [174, 3356]},
    {"prefix": "192.0.2.0/24", "origins": [65001, 65002]}
  ],
  "mitigation": {
    "deaggregation_floor": 24,
    "reannounce_exact": false,
    "auto_mitigate": true
  }
})",
      R"({"schema_version":2,"note":{"x":[1,2,{"y":null}]},"tenants":[
  {"prefixes":[{"neighbors":[3356],"origins":[65001,65002],"prefix":"10.0.0.0/23"}],
   "name":"acmeé","mitigation":{"auto_mitigate":false,"deaggregation_floor":22}},
  {"name":"globex","prefixes":[{"prefix":"2001:db8::/32","origins":[65003]}]}]})",
  };
  // The serializer's own shapes: keys sorted, compact and indented.
  for (const bool reload : {false, true}) {
    const Config config = config_oracle::from_json_text(bench_shaped(reload));
    docs.push_back(config.to_json().dump());
    docs.push_back(config.to_json().dump(2));
  }
  return docs;
}

/// What a loader made of a document: "ok <tenants> <to_json>" or the
/// exception type.
struct Outcome {
  std::string result;
  std::string message;
};

template <typename Load>
Outcome run(Load&& load) {
  try {
    const Config config = load();
    return {"ok " + std::to_string(config.tenants().size()) + " " + config.to_json().dump(), {}};
  } catch (const json::JsonError& e) {
    return {"JsonError", e.what()};
  } catch (const std::invalid_argument& e) {
    return {"invalid_argument", e.what()};
  } catch (const std::exception& e) {
    return {"other", e.what()};
  }
}

/// Walks a syntactically valid document; true when some object holds a
/// member name twice. Syntax errors return false: both loaders reject
/// those with a JsonError whatever else the text holds.
bool repeats_a_member(std::string_view text) {
  json::Reader in(text);
  bool repeated = false;
  const auto walk = [&](auto&& self) -> void {
    switch (in.peek()) {
      case json::Type::kObject: {
        std::set<std::string> names;
        std::string_view key;
        in.begin_object();
        while (in.next_member(key)) {
          if (!names.insert(std::string(key)).second) repeated = true;
          self(self);
        }
        break;
      }
      case json::Type::kArray:
        in.begin_array();
        while (in.next_element()) self(self);
        break;
      default: in.skip_value();
    }
  };
  try {
    walk(walk);
    in.finish();
  } catch (const json::JsonError&) {
    return false;
  }
  return repeated;
}

/// Token spans of a JSON-ish text (strings, numbers, literals and
/// punctuation), for token-level mutations. Tolerates garbage.
std::vector<std::string> tokens_of(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    if (c == '"') {
      while (j < text.size() && text[j] != '"') j += text[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, text.size());
    } else if (std::string_view("{}[],:").find(c) == std::string_view::npos) {
      while (j < text.size() && std::string_view("{}[],:\" \n\t\r").find(text[j]) ==
                                    std::string_view::npos) {
        ++j;
      }
    }
    out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const auto& t : tokens) out += t;
  return out;
}

/// Replacement tokens: wrong types, out-of-range numbers, bad prefixes,
/// member names.
const std::vector<std::string> kValues = {
    "0", "-1", "1.5", "1e19", "-1e19", "9223372036854775808", "4294967296",
    "4294967320", "33", "2", "3", "\"\"", "\"x\"", "\"10.0.0.0/33\"", "\"::1/129\"",
    "null", "true", "false", "[]", "{}", "[0]", "\"default\"", "\"tenants\"",
    "\"prefixes\"", "\"origins\"", "\"prefix\"", "\"name\"", "\"schema_version\""};

/// One byte or token mutation.
std::string mutate(const std::string& doc, Rng& rng) {
  static constexpr std::string_view kBytes = "{}[]\":,0123456789-+.eE tfnul\\/ax\x01\xc3";
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.uniform_u64(n)); };
  std::string out = doc;
  if (rng.chance(0.5)) {
    const std::size_t at = pick(out.size());
    const char byte = kBytes[pick(kBytes.size())];
    switch (pick(4)) {
      case 0: out[at] = byte; break;
      case 1: out.erase(at, 1); break;
      case 2: out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
      default: out.resize(at); break;
    }
    return out;
  }
  std::vector<std::string> tokens = tokens_of(doc);
  const std::size_t at = pick(tokens.size());
  switch (pick(5)) {
    case 0: tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at)); break;
    case 1:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), tokens[at]);
      break;
    case 2:
      if (at + 1 < tokens.size()) std::swap(tokens[at], tokens[at + 1]);
      break;
    case 3: tokens[at] = tokens[pick(tokens.size())]; break;
    default: tokens[at] = kValues[pick(kValues.size())]; break;
  }
  return join_tokens(tokens);
}

/// Replaces two or three value tokens (not member names) with kValues:
/// documents that stay well-formed JSON but carry several schema faults,
/// so the loader's choice of which fault to report is exercised.
std::string plant_faults(const std::string& doc, Rng& rng) {
  std::vector<std::string> tokens = tokens_of(doc);
  std::vector<std::size_t> values;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const char c = tokens[i][0];
    const bool key = i + 1 < tokens.size() && tokens[i + 1] == ":";
    if (!key && c != '{' && c != '}' && c != '[' && c != ']' && c != ',' && c != ':') {
      values.push_back(i);
    }
  }
  const std::size_t faults = 2 + rng.uniform_u64(2);
  for (std::size_t n = 0; n < faults; ++n) {
    tokens[values[rng.uniform_u64(values.size())]] = kValues[rng.uniform_u64(kValues.size())];
  }
  return join_tokens(tokens);
}

void expect_same(const std::string& text, std::map<std::string, int>& tally) {
  const Outcome want = run([&] { return config_oracle::from_json_text(text); });
  const Outcome got = run([&] { return Config::from_json_text(text); });
  if (got.result == want.result) {
    ++tally[want.result.substr(0, want.result.find(' '))];
    return;
  }
  if (got.result == "JsonError" &&
      got.message.find(kRepeatedMember) != std::string::npos && repeats_a_member(text)) {
    ++tally[std::string(kRepeatedMember)];
    return;
  }
  ADD_FAILURE() << "loaders disagree on:\n"
                << text << "\n  DOM:      " << want.result << " " << want.message
                << "\n  one-pass: " << got.result << " " << got.message;
}

TEST(ConfigDiffTest, BaseDocumentsLoadIdentically) {
  std::map<std::string, int> tally;
  for (const auto& doc : base_documents()) {
    ASSERT_FALSE(doc.empty());
    expect_same(doc, tally);
  }
  EXPECT_EQ(tally["ok"], static_cast<int>(base_documents().size()));
}

TEST(ConfigDiffTest, MutatedDocumentsLoadOrFailIdentically) {
  Rng rng(kSeed);
  std::map<std::string, int> tally;
  for (const auto& doc : base_documents()) {
    for (int i = 0; i < kMutationsPerDocument; ++i) expect_same(mutate(doc, rng), tally);
  }
  // The corpus must exercise every outcome, or it proves little.
  EXPECT_GE(tally["ok"], 200);
  EXPECT_GE(tally["JsonError"], 200);
  EXPECT_GE(tally["invalid_argument"], 100);
  for (const auto& [outcome, count] : tally) {
    std::printf("  %-18s %d\n", outcome.c_str(), count);
  }
}

TEST(ConfigDiffTest, SeveralFaultsReportTheFirstInSchemaOrder) {
  // Both exception types among the faults, in any textual order: the
  // loader must throw the type of the fault the DOM walk meets first.
  Rng rng(kSeed + 1);
  std::map<std::string, int> tally;
  for (const auto& doc : base_documents()) {
    for (int i = 0; i < kMutationsPerDocument; ++i) expect_same(plant_faults(doc, rng), tally);
  }
  EXPECT_GE(tally["JsonError"], 200);
  EXPECT_GE(tally["invalid_argument"], 200);
}

}  // namespace
}  // namespace artemis::core
