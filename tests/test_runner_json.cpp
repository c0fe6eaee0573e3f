// util::JsonWriter — the hand-rolled emitter behind every JSON artifact.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/json.hpp"

using retri::util::JsonWriter;

TEST(JsonWriter, CompactObject) {
  JsonWriter json;
  json.begin_object()
      .member("name", "fig4")
      .member("trials", 10u)
      .member("ratio", 0.5)
      .member("ok", true)
      .end_object();
  EXPECT_EQ(json.str(),
            R"({"name":"fig4","trials":10,"ratio":0.5,"ok":true})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter json;
  json.begin_object().key("points").begin_array();
  json.begin_object().member("id", 1).end_object();
  json.begin_object().member("id", 2).end_object();
  json.end_array().key("empty").begin_array().end_array().end_object();
  EXPECT_EQ(json.str(), R"({"points":[{"id":1},{"id":2}],"empty":[]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.value(std::string_view("a\"b\\c\nd\te\x01" "f"));
  EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(JsonWriter, EscapesKeys) {
  JsonWriter json;
  json.begin_object().member("we\"ird", 1).end_object();
  EXPECT_EQ(json.str(), R"({"we\"ird":1})");
}

TEST(JsonWriter, NumbersRoundTrip) {
  JsonWriter json;
  json.begin_array();
  json.value(0.1);
  json.value(std::uint64_t{18446744073709551615ULL});
  json.value(std::int64_t{-42});
  json.value(1e300);
  json.end_array();
  EXPECT_EQ(json.str(), "[0.1,18446744073709551615,-42,1e+300]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(std::numeric_limits<double>::infinity());
  json.null();
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null,null]");
}

TEST(JsonWriter, PrettyPrintingIsStable) {
  JsonWriter json(/*pretty=*/true);
  json.begin_object().member("a", 1).key("b").begin_array().value(2).end_array();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, EmptyContainersStayOnOneLineWhenPretty) {
  JsonWriter json(/*pretty=*/true);
  json.begin_object().key("x").begin_object().end_object().end_object();
  EXPECT_EQ(json.str(), "{\n  \"x\": {}\n}");
}
