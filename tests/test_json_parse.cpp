// util::parse_json — the read half of the JSON loop the memo store
// closes. The tests concentrate on what the cache/wire layers depend on:
// exact 64-bit integer round-trips (raw-token re-parse), document-order
// member iteration, strict whole-document parsing, and bounded recursion
// on untrusted input.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace util = retri::util;

TEST(JsonParse, ScalarsAndContainers) {
  const auto doc = util::parse_json(
      R"({"null":null,"t":true,"f":false,"n":42,"s":"hi","a":[1,2,3]})");
  ASSERT_TRUE(doc.ok());
  const util::JsonValue& v = doc.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 6u);
  EXPECT_TRUE(v.find("null")->is_null());
  EXPECT_TRUE(v.boolean("t"));
  EXPECT_FALSE(v.boolean("f", true));
  EXPECT_EQ(v.u64("n"), 42u);
  EXPECT_EQ(v.str("s"), "hi");
  const util::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[2].as_u64(), 3u);
}

TEST(JsonParse, MembersKeepDocumentOrder) {
  const auto doc = util::parse_json(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(doc.ok());
  const auto& members = doc.value().members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, SixtyFourBitIntegersAreExact) {
  // 0xffffffffffffffff and a SplitMix64-style derived seed: both lose
  // precision through a double, so as_u64 must re-parse the raw token.
  const auto doc = util::parse_json(
      R"({"max":18446744073709551615,"seed":11400714819323198485,)"
      R"("neg":-9223372036854775808})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().u64("max"), 18446744073709551615ull);
  EXPECT_EQ(doc.value().u64("seed"), 11400714819323198485ull);
  EXPECT_EQ(doc.value().i64("neg"), INT64_MIN);
  EXPECT_EQ(doc.value().find("seed")->raw(), "11400714819323198485");
}

TEST(JsonParse, DoublesRoundTripThroughWriterTokens) {
  // Whatever shortest-form token JsonWriter emits must read back as the
  // identical double — the canonical-cell byte-stability contract.
  for (const double value : {0.15, 1.0 / 3.0, 1e-17, 123456.789, -0.0}) {
    util::JsonWriter json(/*pretty=*/false);
    json.begin_object();
    json.member("v", value);
    json.end_object();
    const auto doc = util::parse_json(json.str());
    ASSERT_TRUE(doc.ok()) << json.str();
    EXPECT_EQ(doc.value().dbl("v"), value) << json.str();
  }
}

TEST(JsonParse, StringEscapes) {
  const auto doc = util::parse_json(
      R"({"s":"a\"b\\c\/d\b\f\n\r\t","u":"Aé€","sur":"😀"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().str("s"), "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(doc.value().str("u"), "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(doc.value().str("sur"), "\xf0\x9f\x98\x80");  // 😀 via pair
}

TEST(JsonParse, TrailingGarbageIsAnError) {
  // A concatenated or truncated frame must not half-parse.
  EXPECT_FALSE(util::parse_json("{}{}").ok());
  EXPECT_FALSE(util::parse_json("{\"a\":1} x").ok());
  EXPECT_FALSE(util::parse_json("{\"a\":1").ok());
  EXPECT_FALSE(util::parse_json("[1,2,").ok());
  EXPECT_FALSE(util::parse_json("").ok());
}

TEST(JsonParse, MalformedTokensCarryOffsets) {
  const auto bad = util::parse_json(R"({"a": nope})");
  ASSERT_FALSE(bad.ok());
  EXPECT_GE(bad.error().offset, 6u);
  EXPECT_NE(bad.error().describe().find("offset"), std::string::npos);
}

TEST(JsonParse, DepthLimitRejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(util::parse_json(deep).ok());
  // The same document passes with a limit that accommodates it.
  EXPECT_TRUE(util::parse_json(deep, /*max_depth=*/256).ok());
}

TEST(JsonParse, WrongKindReadsAreNeutral) {
  const auto doc = util::parse_json(R"({"s":"text","n":7})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().find("s")->as_u64(), 0u);
  EXPECT_FALSE(doc.value().find("n")->as_bool());
  EXPECT_EQ(doc.value().u64("missing", 99u), 99u);
  EXPECT_EQ(doc.value().find("does-not-exist"), nullptr);
}
