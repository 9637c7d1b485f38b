/**
 * @file
 * The one JSON layer: every record the project writes (golden metrics,
 * heracles_sim --json, the BENCH_*.json perf records) goes through
 * JsonWriter, and every record it reads back goes through JsonReader.
 *
 * JsonWriter pretty-prints with a two-space indent, places commas
 * itself and escapes strings ('"' and '\\' with a backslash, control
 * characters as \u00XX). It has exactly one number format: the
 * shortest of %.9g and %.17g that parses back to the same double, so
 * every double round-trips bit for bit. Integers and bools are written
 * as-is.
 *
 * JsonReader is a strict pull reader that mirrors the writer for what
 * the project reads back (objects, numbers, strings): the caller
 * replays the writer's call sequence (BeginObject, Key("x"), Number,
 * ...) and the reader accepts exactly the tokens that sequence
 * produces, whitespace aside. Any other key, key order, value type, a
 * non-finite number or a byte after the document fails it. Errors are
 * sticky: after the first one no later call succeeds and Done() is
 * false.
 */
#ifndef HERACLES_SIM_JSON_H
#define HERACLES_SIM_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace heracles::sim {

class JsonWriter
{
  public:
    JsonWriter& BeginObject() { return Open('{'); }
    JsonWriter& EndObject() { return Close('}'); }
    JsonWriter& BeginArray() { return Open('['); }
    JsonWriter& EndArray() { return Close(']'); }
    /** Names the next member of the open object. */
    JsonWriter& Key(std::string_view key);
    /** A finite double at round-trip precision (aborts on NaN/inf). */
    JsonWriter& Number(double v);
    JsonWriter& Int(int64_t v) { return Scalar(std::to_string(v)); }
    JsonWriter& Bool(bool v) { return Scalar(v ? "true" : "false"); }
    JsonWriter& String(std::string_view s) { return Scalar(Quote(s)); }

    /** The document so far; newline-terminated once it is complete. */
    const std::string& str() const { return out_; }

  private:
    /** @p s quoted, with '"', '\\' and control characters escaped. */
    static std::string Quote(std::string_view s);
    /** Separator and indent before a value (none right after a Key). */
    void BeforeValue();
    JsonWriter& Scalar(std::string_view text);
    JsonWriter& Open(char bracket);
    JsonWriter& Close(char bracket);

    std::string out_;
    std::vector<bool> empty_;  ///< Per open container: no member yet.
    bool after_key_ = false;
};

class JsonReader
{
  public:
    explicit JsonReader(std::string_view text) : text_(text) {}

    void BeginObject();
    void EndObject();
    /** Consumes the next member name; fails unless it is @p key. */
    void Key(std::string_view key);
    /** The next value as a finite number (0 after an error). */
    double Number();
    /** The next value as a string (empty after an error). */
    std::string String();

    /** True when no call failed and only whitespace remains. */
    bool Done();

  private:
    /** Skips whitespace, then consumes @p c or fails. */
    void Expect(char c);
    void SkipSpace();
    void Fail() { ok_ = false; }

    std::string_view text_;
    size_t pos_ = 0;
    bool ok_ = true;
    int depth_ = 0;      ///< Open objects.
    bool first_ = true;  ///< The next Key is its object's first member.
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_JSON_H
