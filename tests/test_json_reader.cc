#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace bcfl::obs {
namespace {

JsonValue ParseOk(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " for: " << text;
  return parsed.ok() ? *parsed : JsonValue{};
}

TEST(JsonReaderTest, Scalars) {
  EXPECT_TRUE(ParseOk("null").is_null());
  EXPECT_TRUE(ParseOk("true").bool_value);
  EXPECT_FALSE(ParseOk("false").bool_value);
  EXPECT_DOUBLE_EQ(ParseOk("42").number, 42.0);
  EXPECT_DOUBLE_EQ(ParseOk("-3.5e2").number, -350.0);
  EXPECT_EQ(ParseOk("\"hi\"").string, "hi");
  EXPECT_DOUBLE_EQ(ParseOk("  1.25  ").number, 1.25);
}

TEST(JsonReaderTest, NestedDocumentPreservesOrder) {
  JsonValue v = ParseOk(
      R"({"b":1,"a":{"x":[1,2,3],"y":null},"c":true})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "b");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "c");
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* x = a->Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_EQ(x->array.size(), 3u);
  EXPECT_DOUBLE_EQ(x->array[2].number, 3.0);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonReaderTest, StringEscapes) {
  EXPECT_EQ(ParseOk(R"("a\"b\\c\/d\n\t\r\b\f")").string,
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(ParseOk(R"("\u0041\u00e9")").string, "A\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(ParseOk(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(ParseOk(R"("\u0007")").string, "\x07");
}

TEST(JsonReaderTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad \\q escape\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());  // Lone high surrogate.
  EXPECT_FALSE(ParseJson("1 2").ok());          // Trailing garbage.
  EXPECT_FALSE(ParseJson("01").ok());
}

TEST(JsonReaderTest, DepthCapStopsUnboundedRecursion) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string shallow(100, '[');
  shallow += std::string(100, ']');
  EXPECT_TRUE(ParseJson(shallow).ok());
}

TEST(JsonWriterTest, NonFiniteNumbersDegradeToNull) {
  JsonWriter w;
  w.BeginObject();
  w.Field("nan", std::numeric_limits<double>::quiet_NaN());
  w.Field("inf", std::numeric_limits<double>::infinity());
  w.Field("ninf", -std::numeric_limits<double>::infinity());
  w.Field("fine", 1.5);
  w.EndObject();
  JsonValue v = ParseOk(w.str());
  EXPECT_TRUE(v.Find("nan")->is_null());
  EXPECT_TRUE(v.Find("inf")->is_null());
  EXPECT_TRUE(v.Find("ninf")->is_null());
  EXPECT_DOUBLE_EQ(v.Find("fine")->number, 1.5);
}

TEST(JsonWriterTest, ControlCharactersRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.Field("s", std::string("a\x01\x1f\n\"\\b").c_str());
  w.EndObject();
  JsonValue v = ParseOk(w.str());
  EXPECT_EQ(v.Find("s")->string, "a\x01\x1f\n\"\\b");
}

// Fuzz-style round trip: random documents emitted by JsonWriter must
// parse back with every leaf intact (non-finite numbers as null).
// Writer-reader disagreements on escaping or number formatting show up
// here long before a mangled BENCH_*.json confuses the bench gate.
TEST(JsonRoundTripFuzzTest, RandomDocumentsSurviveWriteParse) {
  Xoshiro256 rng(20260808);
  for (int doc = 0; doc < 200; ++doc) {
    JsonWriter w;
    std::vector<std::string> keys;
    std::vector<double> numbers;
    std::vector<std::string> strings;
    const size_t fields = 1 + rng.Next() % 8;
    w.BeginObject();
    for (size_t f = 0; f < fields; ++f) {
      keys.push_back("k");  // Not "k" + ...: GCC 12's false -Wrestrict.
      keys.back() += std::to_string(f);
      switch (rng.Next() % 3) {
        case 0: {
          double value;
          const uint64_t pick = rng.Next() % 8;
          if (pick == 0) {
            value = std::numeric_limits<double>::quiet_NaN();
          } else if (pick == 1) {
            value = std::numeric_limits<double>::infinity();
          } else {
            // %.6f territory: keep magnitudes printable-exact.
            value = std::floor(rng.NextDouble() * 2e6 - 1e6) / 64.0;
          }
          numbers.push_back(value);
          strings.emplace_back();
          w.Field(keys.back(), value);
          break;
        }
        case 1: {
          std::string s;
          const size_t len = rng.Next() % 24;
          for (size_t i = 0; i < len; ++i) {
            // Bytes 1..127: ASCII incl. controls, quotes, backslashes.
            s += static_cast<char>(1 + rng.Next() % 127);
          }
          numbers.push_back(0.0);
          strings.push_back(s);
          w.Field(keys.back().c_str(), s.c_str());
          break;
        }
        default: {
          w.BeginArray(keys.back().c_str());
          const size_t elems = rng.Next() % 4;
          double sum = 0;
          for (size_t e = 0; e < elems; ++e) {
            const double value = std::floor(rng.NextDouble() * 1000.0);
            sum += value;
            w.Element(value);
          }
          w.EndArray();
          numbers.push_back(sum);
          strings.emplace_back();
          break;
        }
      }
    }
    w.EndObject();

    auto parsed = ParseJson(w.str());
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << " for doc: " << w.str();
    ASSERT_EQ(parsed->object.size(), fields) << w.str();
    for (size_t f = 0; f < fields; ++f) {
      const JsonValue* leaf = parsed->Find(keys[f]);
      ASSERT_NE(leaf, nullptr);
      if (leaf->is_number()) {
        EXPECT_DOUBLE_EQ(leaf->number, numbers[f]) << w.str();
      } else if (leaf->is_string()) {
        EXPECT_EQ(leaf->string, strings[f]) << w.str();
      } else if (leaf->is_array()) {
        double sum = 0;
        for (const JsonValue& e : leaf->array) sum += e.number;
        EXPECT_DOUBLE_EQ(sum, numbers[f]) << w.str();
      } else {
        EXPECT_TRUE(leaf->is_null()) << w.str();
        EXPECT_FALSE(std::isfinite(numbers[f])) << w.str();
      }
    }
  }
}

TEST(JsonReaderTest, ParseFileErrorsCarryPath) {
  auto missing = ParseJsonFile("/nonexistent/bcfl.json");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("/nonexistent/bcfl.json"),
            std::string::npos);
}

}  // namespace
}  // namespace bcfl::obs
