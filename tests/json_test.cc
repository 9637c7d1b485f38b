/**
 * @file
 * The JSON layer: JsonWriter's layout, escaping and round-trip number
 * format, and the strict JsonReader behind MetricsFromJson, which must
 * reject every document the writer cannot have produced for a metrics
 * record.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "scenarios/scenario.h"
#include "sim/json.h"

namespace heracles {
namespace {

using scenarios::MetricsFromJson;
using scenarios::MetricsToJson;
using scenarios::ScenarioMetrics;
using sim::JsonReader;
using sim::JsonWriter;

TEST(JsonWriter, PrettyPrintsWithTwoSpaceIndent)
{
    JsonWriter w;
    w.BeginObject();
    w.Key("name").String("x");
    w.Key("n").Int(-3);
    w.Key("ok").Bool(true);
    w.Key("empty").BeginArray().EndArray();
    w.Key("list").BeginArray();
    w.Number(0.5);
    w.BeginObject().Key("a").Int(1).EndObject();
    w.EndArray();
    w.EndObject();
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"n\": -3,\n"
              "  \"ok\": true,\n"
              "  \"empty\": [],\n"
              "  \"list\": [\n"
              "    0.5,\n"
              "    {\n"
              "      \"a\": 1\n"
              "    }\n"
              "  ]\n"
              "}\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters)
{
    const std::string raw = std::string("q\"b\\n\nt\tc\x01") + '\0' + "e";
    JsonWriter w;
    w.String(raw);
    EXPECT_EQ(w.str(),
              "\"q\\\"b\\\\n\\u000at\\u0009c\\u0001\\u0000e\"\n");

    JsonWriter doc;
    doc.BeginObject().Key("s").String(raw).EndObject();
    JsonReader r(doc.str());
    r.BeginObject();
    r.Key("s");
    EXPECT_EQ(r.String(), raw);
    r.EndObject();
    EXPECT_TRUE(r.Done());
}

TEST(JsonWriter, NumbersRoundTripExactly)
{
    const double values[] = {
        -0.0,
        0.1,
        1e300,
        std::numeric_limits<double>::denorm_min(),
        2.2250738585072e-310,  // another subnormal
        1.0 / 3.0,
        -123456789.125,
        std::numeric_limits<double>::max(),
    };
    for (const double v : values) {
        JsonWriter w;
        w.BeginObject().Key("v").Number(v).EndObject();
        JsonReader r(w.str());
        r.BeginObject();
        r.Key("v");
        const double back = r.Number();
        r.EndObject();
        ASSERT_TRUE(r.Done()) << w.str();
        EXPECT_EQ(back, v) << w.str();
        EXPECT_EQ(std::signbit(back), std::signbit(v)) << w.str();
    }
    JsonWriter w;
    w.BeginArray().Number(-0.0).Number(0.1).Number(1e300).EndArray();
    EXPECT_EQ(w.str(), "[\n  -0,\n  0.1,\n  1e+300\n]\n");
}

TEST(JsonReader, MirrorsTheWritersCallSequence)
{
    JsonWriter w;
    w.BeginObject();
    w.Key("a").BeginObject().EndObject();
    w.Key("b").BeginObject().Key("c").Int(1).EndObject();
    w.Key("d").String("x");
    w.EndObject();

    JsonReader r(w.str());
    r.BeginObject();
    r.Key("a");
    r.BeginObject();
    r.EndObject();
    r.Key("b");
    r.BeginObject();
    r.Key("c");
    EXPECT_EQ(r.Number(), 1.0);
    r.EndObject();
    r.Key("d");
    EXPECT_EQ(r.String(), "x");
    r.EndObject();
    EXPECT_TRUE(r.Done()) << w.str();
}

TEST(JsonReader, RejectsNonFiniteAndMalformedNumbers)
{
    for (const char* text : {"NaN", "nan", "1e999", "-1e999", "Infinity",
                             "01", "1.", ".5", "+1", "1e", "-", "0x10"}) {
        JsonReader r(text);
        r.Number();
        EXPECT_FALSE(r.Done()) << text;
    }
    JsonReader ok("-1.5e-3");
    EXPECT_EQ(ok.Number(), -1.5e-3);
    EXPECT_TRUE(ok.Done());
}

TEST(JsonReader, AcceptsOnlyTheWritersStringEscapes)
{
    for (const char* text :
         {"\"raw\ncontrol\"", "\"\\n\"", "\"\\/\"", "\"\\u0020\"",
          "\"\\u00e9\"", "\"\\u001\"", "\"\\\"", "\"\\", "\"open",
          "'single'"}) {
        JsonReader r(text);
        r.String();
        EXPECT_FALSE(r.Done()) << text;
    }
    JsonReader ok("\"a\\\"b\\\\c\\u001f\"");
    EXPECT_EQ(ok.String(), "a\"b\\c\x1f");
    EXPECT_TRUE(ok.Done());
}

TEST(JsonReader, ErrorsAreSticky)
{
    JsonReader r("{\"a\": 1, \"b\": 2}");
    r.BeginObject();
    r.Key("b");  // wrong key: fails here ...
    r.Number();
    r.Key("b");  // ... and a later matching call cannot recover it.
    EXPECT_EQ(r.Number(), 0.0);
    r.EndObject();
    EXPECT_FALSE(r.Done());
}

/** A record with the values the mutations below key on. */
ScenarioMetrics
SampleRecord()
{
    ScenarioMetrics m;
    m.scenario = "sample";
    m.slo_attained = 1;
    m.tail_frac_slo = 0.79806336;
    m.emu = 0.1 + 0.2;
    m.p95_ms = 7.5;
    m.p99_ms = 9.75;
    m.polls = 4;
    m.faulted_ops = 12;
    m.leaf_target_ms = 3.5;
    return m;
}

std::string
Replace(std::string s, const std::string& from, const std::string& to)
{
    const size_t pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) s.replace(pos, from.size(), to);
    return s;
}

TEST(MetricsJson, RoundTripsTheSample)
{
    const ScenarioMetrics m = SampleRecord();
    ScenarioMetrics back;
    ASSERT_TRUE(MetricsFromJson(MetricsToJson(m), &back));
    EXPECT_TRUE(back.ExactlyEquals(m));
}

TEST(MetricsJson, ReaderRejectsEverythingButTheWriterLayout)
{
    const std::string good = MetricsToJson(SampleRecord());
    const size_t scenario_at = good.find("\"sample\"");
    ASSERT_NE(scenario_at, std::string::npos);
    const struct {
        const char* what;
        std::string text;
    } cases[] = {
        {"trailing comma",
         Replace(good, "\"leaf_target_ms\": 3.5\n",
                 "\"leaf_target_ms\": 3.5,\n")},
        {"missing comma",
         Replace(good, "\"p95_ms\": 7.5,", "\"p95_ms\": 7.5")},
        {"duplicate key",
         Replace(good, "\"p95_ms\": 7.5,\n",
                 "\"p95_ms\": 7.5,\n    \"p95_ms\": 7.5,\n")},
        {"missing metric", Replace(good, "    \"faulted_ops\": 12,\n", "")},
        {"unknown metric",
         Replace(good, "\"polls\": 4,\n",
                 "\"polls\": 4,\n    \"bogus\": 1,\n")},
        {"swapped key order",
         Replace(good, "\"p95_ms\": 7.5,\n    \"p99_ms\": 9.75,",
                 "\"p99_ms\": 9.75,\n    \"p95_ms\": 7.5,")},
        {"schema 1", Replace(good, "\"schema\": 2", "\"schema\": 1")},
        {"NaN", Replace(good, "\"p95_ms\": 7.5", "\"p95_ms\": NaN")},
        {"1e999", Replace(good, "\"p95_ms\": 7.5", "\"p95_ms\": 1e999")},
        {"unterminated string", good.substr(0, scenario_at + 4)},
        {"bytes after the closing brace", good + "}"},
        {"empty input", ""},
    };
    ScenarioMetrics untouched;
    untouched.scenario = "untouched";
    for (const auto& c : cases) {
        ScenarioMetrics out = untouched;
        EXPECT_FALSE(MetricsFromJson(c.text, &out)) << c.what;
        EXPECT_TRUE(out.ExactlyEquals(untouched)) << c.what;
    }
    // The mutations are surgical: the unmutated text still parses, also
    // with the whitespace the writer does not emit.
    ScenarioMetrics m;
    EXPECT_TRUE(MetricsFromJson(good, &m));
    EXPECT_TRUE(MetricsFromJson(" \t\r\n" + good + "\n\n", &m));
}

}  // namespace
}  // namespace heracles
