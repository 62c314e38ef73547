// Unit + property tests for the Sonata JSON implementation, and the bench
// report writer (bench/report.hpp) checked against its parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "bench/report.hpp"
#include "services/sonata/json.hpp"
#include "simkit/rng.hpp"

namespace json = sym::json;

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_EQ(json::parse("42").as_int(), 42);
  EXPECT_EQ(json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("-2.5e-2").as_number(), -0.025);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegerVsDoubleDetection) {
  EXPECT_TRUE(json::parse("7").is_int());
  EXPECT_TRUE(json::parse("7.0").is_double());
  EXPECT_TRUE(json::parse("7e0").is_double());
  // int/double numeric equality in queries
  EXPECT_TRUE(json::parse("7") == json::parse("7.0"));
}

// Integers above INT64_MAX (checksums, digests) keep every digit both ways;
// every value up to INT64_MAX still prints and parses as a plain int.
TEST(Json, Uint64AboveInt64MaxRoundTripsExactly) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const json::Value big(kMax);
  EXPECT_TRUE(big.is_uint());
  EXPECT_EQ(json::dump(big), "18446744073709551615");
  const auto back = json::parse("18446744073709551615");
  EXPECT_TRUE(back.is_uint());
  EXPECT_EQ(back.as_uint(), kMax);
  EXPECT_EQ(json::dump(back), "18446744073709551615");
  EXPECT_FALSE(back == json::parse("18446744073709551614"));

  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  const json::Value edge(kIntMax);
  EXPECT_TRUE(edge.is_int());
  EXPECT_EQ(json::dump(edge), "9223372036854775807");
  EXPECT_EQ(json::parse("9223372036854775808").as_uint(), kIntMax + 1);
  EXPECT_TRUE(json::parse("-9223372036854775809").is_double());
}

TEST(Json, ParseNestedStructures) {
  const auto v = json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(v.find_path("d.e")->is_null());
}

TEST(Json, FindPathWithArrayIndices) {
  const auto v = json::parse(R"({"hits": [{"pt": 1.5}, {"pt": 2.5}]})");
  ASSERT_NE(v.find_path("hits[1].pt"), nullptr);
  EXPECT_DOUBLE_EQ(v.find_path("hits[1].pt")->as_number(), 2.5);
  EXPECT_EQ(v.find_path("hits[7].pt"), nullptr);
  EXPECT_EQ(v.find_path("nope.x"), nullptr);
}

TEST(Json, StringEscapes) {
  const auto v = json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapesUtf8) {
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xC3\xA9");      // é
  EXPECT_EQ(json::parse(R"("€")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, WhitespaceTolerance) {
  const auto v = json::parse(" {\n\t\"a\" :\r [ 1 , 2 ] } ");
  EXPECT_EQ(v.find("a")->as_array().size(), 2u);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(json::parse("{}").as_object().empty());
  EXPECT_TRUE(json::parse("[]").as_array().empty());
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "nul", "--3", "{1: 2}",
        "\"bad\\escape\\q\""}) {
    EXPECT_THROW((void)json::parse(bad), json::ParseError) << bad;
  }
}

TEST(Json, DeepNestingGuard) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW((void)json::parse(deep), json::ParseError);
}

TEST(Json, ControlCharacterRejected) {
  std::string s = "\"a";
  s += '\x01';
  s += '"';
  EXPECT_THROW((void)json::parse(s), json::ParseError);
}

TEST(Json, DumpRoundTrip) {
  const char* docs[] = {
      "null", "true", "[1,2,3]", R"({"a":1,"b":[true,null,"x"]})",
      R"({"nested":{"deep":{"deeper":[{"k":"v"}]}}})"};
  for (const char* doc : docs) {
    const auto v = json::parse(doc);
    const auto text = json::dump(v);
    EXPECT_TRUE(json::parse(text) == v) << doc;
  }
}

TEST(Json, DumpEscapesControlCharacters) {
  json::Value v(std::string("line1\nline2\ttab\x01"));
  const auto text = json::dump(v);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_TRUE(json::parse(text) == v);
}

TEST(Json, PrettyPrintParsesBack) {
  const auto v = json::parse(R"({"a":[1,{"b":2}],"c":"d"})");
  const auto pretty = json::dump_pretty(v);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(json::parse(pretty) == v);
}

// Property test: randomly generated documents survive dump->parse->dump.
namespace {

json::Value random_value(sym::sim::Rng& rng, int depth) {
  const auto pick = rng.uniform(depth > 3 ? 5 : 7);
  switch (pick) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.bernoulli(0.5));
    case 2:
      return json::Value(static_cast<std::int64_t>(rng.uniform(1 << 30)) -
                         (1 << 29));
    case 3: return json::Value(rng.uniform_real(-1e6, 1e6));
    case 4: {
      std::string s;
      const auto len = rng.uniform(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>('a' + rng.uniform(26));
      }
      if (rng.bernoulli(0.2)) s += "\"\\\n";
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      const auto n = rng.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth + 1));
      }
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const auto n = rng.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(i)] = random_value(rng, depth + 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

}  // namespace

class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(JsonRoundTripProperty, DumpParseStable) {
  sym::sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto v = random_value(rng, 0);
    const auto once = json::dump(v);
    const auto again = json::dump(json::parse(once));
    EXPECT_EQ(once, again);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// bench/report.hpp: the trajectory studies' JSON writer and gate ledger
// ---------------------------------------------------------------------------

TEST(BenchReport, DocumentAndGateLedgerParseBack) {
  const bench::StudyArgs args{true, ::testing::TempDir() + "bench_gates.json"};
  const std::string tricky = std::string("a\"b\\c") + '\x01' + "d";
  bench::Report report("report_test", args);
  auto& w = report.json();
  w.field("name", tricky)
      .field("max", std::numeric_limits<std::uint64_t>::max())
      .field("checksum", std::uint64_t{12117502113442574165u})
      .field("ratio", 0.1)
      .field("whole", 2.0)
      .field("signed", -3)
      .begin_array("cells");
  w.begin_object().field("id", 1u).begin_array("ops");
  w.begin_object().field("op", "x").end().begin_object().field("op", "y").end();
  w.end().end();
  w.begin_object().field("flag", true).begin_array("ops").end().end();
  w.end();
  EXPECT_TRUE(report.gate("good", true, "check %d", 1));
  EXPECT_FALSE(report.gate("bad", false, "check %d", 2));
  report.skip("later", "smoke run");
  EXPECT_EQ(report.finish(), 1);

  std::ifstream in(args.out);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Insertion order (the parser's std::map would hide a reordering), uint64
  // printed unsigned, doubles shortest and always with a '.', one array row
  // per line with nested arrays indented one level more, gates last.
  EXPECT_EQ(text, "{\n"
                  "  \"bench\": \"report_test\",\n"
                  "  \"smoke\": true,\n"
                  "  \"host_cpus\": " +
                      std::to_string(report.host_cpus()) + ",\n"
                  "  \"name\": \"a\\\"b\\\\c\\u0001d\",\n"
                  "  \"max\": 18446744073709551615,\n"
                  "  \"checksum\": 12117502113442574165,\n"
                  "  \"ratio\": 0.1,\n"
                  "  \"whole\": 2.0,\n"
                  "  \"signed\": -3,\n"
                  "  \"cells\": [\n"
                  "    {\"id\": 1, \"ops\": [\n"
                  "      {\"op\": \"x\"},\n"
                  "      {\"op\": \"y\"}\n"
                  "    ]},\n"
                  "    {\"flag\": true, \"ops\": []}\n"
                  "  ],\n"
                  "  \"gates\": {\"good\": \"PASS\", \"bad\": \"FAIL\", "
                  "\"later\": \"SKIPPED\"}\n"
                  "}\n");
  const auto v = json::parse(text);
  EXPECT_EQ(v.find("name")->as_string(), tricky);
  EXPECT_EQ(v.find("max")->as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.find("checksum")->as_uint(), 12117502113442574165u);
  EXPECT_TRUE(v.find("ratio")->is_double());
  EXPECT_EQ(v.find("ratio")->as_number(), 0.1);
  EXPECT_TRUE(v.find("whole")->is_double());
  EXPECT_EQ(v.find_path("cells[0].ops[1].op")->as_string(), "y");
  EXPECT_EQ(v.find_path("gates.later")->as_string(), "SKIPPED");

  bench::Report passing("report_test", args);  // SKIPPED does not fail
  passing.skip("later", "host has fewer than 4 cpus");
  EXPECT_EQ(passing.finish(), 0);
  std::remove(args.out.c_str());
}

TEST(BenchReport, StudyArgsParseAndReject) {
  const char* argv[] = {"study", "--out", "x.json", "--smoke", "--smoek"};
  auto** args = const_cast<char**>(argv);
  EXPECT_EQ(bench::parse_study_args(1, args, "D").out, "D");
  EXPECT_TRUE(bench::parse_study_args(4, args, "D").smoke);
  EXPECT_EQ(bench::parse_study_args(4, args, "D").out, "x.json");
  EXPECT_EXIT(bench::parse_study_args(2, args, "D"),
              ::testing::ExitedWithCode(2), "no path after '--out'");
  EXPECT_EXIT(bench::parse_study_args(5, args, "D"),
              ::testing::ExitedWithCode(2), "bad argument '--smoek'");
}
