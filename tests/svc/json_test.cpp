#include "svc/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace raidsim::svc {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json_parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(json_parse("-17").as_number(), -17.0);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedDocument) {
  const JsonValue v = json_parse(
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": true}, "e": null})");
  ASSERT_TRUE(v.is_object());
  const JsonValue::Array& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].find("b")->as_string(), "x");
  EXPECT_TRUE(v.find("c")->find("d")->as_bool());
  EXPECT_TRUE(v.find("e")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, EscapesRoundTrip) {
  const JsonValue v = json_parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
  // dump() re-escapes; reparsing yields the same string.
  EXPECT_EQ(json_parse(v.dump()).as_string(), v.as_string());
}

TEST(Json, UnicodeEscapeEncodesUtf8) {
  EXPECT_EQ(json_parse(R"("é")").as_string(), "\xc3\xa9");
  EXPECT_EQ(json_parse(R"("€")").as_string(), "\xe2\x82\xac");
}

TEST(Json, TrailingDataIsAnError) {
  EXPECT_THROW(json_parse("{} extra"), JsonError);
  EXPECT_THROW(json_parse("1 2"), JsonError);
}

TEST(Json, TruncatedInputIsAnError) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{\"a\":"), JsonError);
  EXPECT_THROW(json_parse("[1, 2"), JsonError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
  EXPECT_THROW(json_parse("tru"), JsonError);
}

TEST(Json, MalformedEscapesAreErrors) {
  EXPECT_THROW(json_parse(R"("\q")"), JsonError);
  EXPECT_THROW(json_parse(R"("\u12g4")"), JsonError);
  EXPECT_THROW(json_parse(R"("\u12")"), JsonError);
  EXPECT_THROW(json_parse("\"raw\ncontrol\""), JsonError);
}

TEST(Json, DepthBombIsRejectedNotStackOverflow) {
  std::string bomb;
  for (int i = 0; i < 2000; ++i) bomb += '[';
  EXPECT_THROW(json_parse(bomb), JsonError);
}

TEST(Json, ErrorCarriesByteOffset) {
  try {
    json_parse("{\"key\": !}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("byte 8"), std::string::npos);
  }
}

TEST(Json, NumberOverflowIsAnError) {
  EXPECT_THROW(json_parse("1e999"), JsonError);
}

TEST(Json, LargeNumbersDumpWithoutIntegerCast) {
  // Past the long long range dump() must not take the integer form: the
  // cast is undefined there (float-cast-overflow in a sanitized build).
  for (const char* text : {"1e19", "-1e19", "1e300", "-9223372036854775808"}) {
    const double value = json_parse(text).as_number();
    EXPECT_EQ(json_parse(JsonValue(value).dump()).as_number(), value) << text;
  }
}

TEST(Json, DumpStableKeyOrder) {
  const JsonValue v = json_parse(R"({"zeta": 1, "alpha": 2})");
  EXPECT_EQ(v.dump(), R"({"alpha":2,"zeta":1})");
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const JsonValue v = json_parse("42");
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(v.as_bool(), std::runtime_error);
}

}  // namespace
}  // namespace raidsim::svc
