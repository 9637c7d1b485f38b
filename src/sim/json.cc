#include "sim/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>

#include "sim/log.h"

namespace heracles::sim {

void
JsonWriter::BeforeValue()
{
    if (after_key_) {
        after_key_ = false;
    } else if (!empty_.empty()) {
        out_ += empty_.back() ? "\n" : ",\n";
        empty_.back() = false;
        out_.append(2 * empty_.size(), ' ');
    }
}

JsonWriter&
JsonWriter::Scalar(std::string_view text)
{
    BeforeValue();
    out_ += text;
    if (empty_.empty()) out_ += '\n';
    return *this;
}

JsonWriter&
JsonWriter::Open(char bracket)
{
    BeforeValue();
    out_ += bracket;
    empty_.push_back(true);
    return *this;
}

JsonWriter&
JsonWriter::Close(char bracket)
{
    HERACLES_CHECK(!empty_.empty() && !after_key_);
    const bool was_empty = empty_.back();
    empty_.pop_back();
    if (!was_empty) {
        out_ += '\n';
        out_.append(2 * empty_.size(), ' ');
    }
    out_ += bracket;
    if (empty_.empty()) out_ += '\n';
    return *this;
}

JsonWriter&
JsonWriter::Key(std::string_view key)
{
    HERACLES_CHECK(!empty_.empty() && !after_key_);
    BeforeValue();
    out_ += Quote(key) + ": ";
    after_key_ = true;
    return *this;
}

JsonWriter&
JsonWriter::Number(double v)
{
    HERACLES_CHECK_MSG(std::isfinite(v), "JSON has no encoding for " << v);
    // The shortest of %.9g / %.17g that parses back to exactly v (the
    // compact form keeps files legible).
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    if (std::strtod(buf, nullptr) != v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return Scalar(buf);
}

std::string
JsonWriter::Quote(std::string_view s)
{
    std::string q = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            q += '\\';
            q += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x",
                          static_cast<unsigned>(c));
            q += esc;
        } else {
            q += c;
        }
    }
    return q + '"';
}

void
JsonReader::SkipSpace()
{
    pos_ = std::min(text_.find_first_not_of(" \t\r\n", pos_), text_.size());
}

void
JsonReader::Expect(char c)
{
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
    } else {
        Fail();
    }
}

void
JsonReader::BeginObject()
{
    Expect('{');
    ++depth_;
    first_ = true;
}

void
JsonReader::EndObject()
{
    Expect('}');
    if (depth_-- == 0) Fail();
    first_ = false;  // The enclosing object's next member needs a comma.
}

void
JsonReader::Key(std::string_view key)
{
    if (depth_ == 0) Fail();
    if (!first_) Expect(',');
    first_ = false;
    if (String() != key) Fail();
    Expect(':');
}

double
JsonReader::Number()
{
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-.0123456789eE").find(text_[pos_]) !=
               std::string_view::npos) {
        ++pos_;
    }
    static const std::regex kGrammar(
        R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!ok_ || !std::regex_match(token, kGrammar) || !std::isfinite(v)) {
        Fail();
        return 0.0;
    }
    return v;
}

std::string
JsonReader::String()
{
    Expect('"');
    std::string s;
    while (ok_ && pos_ < text_.size()) {
        const char c = text_[pos_++];
        if (c == '"') return s;
        if (static_cast<unsigned char>(c) < 0x20) Fail();
        if (c != '\\') {
            s += c;
        } else if (pos_ < text_.size() &&
                   (text_[pos_] == '"' || text_[pos_] == '\\')) {
            s += text_[pos_++];
        } else {
            // Exactly the writer's other escape: \u00XX below 0x20.
            static const std::regex kControl("u00[01][0-9a-fA-F]");
            const std::string esc(text_.substr(pos_, 5));
            pos_ += esc.size();
            if (std::regex_match(esc, kControl)) {
                s += static_cast<char>(std::strtoul(&esc[1], nullptr, 16));
            } else {
                Fail();
            }
        }
    }
    Fail();  // Unterminated (or already failed).
    return "";
}

bool
JsonReader::Done()
{
    SkipSpace();
    return ok_ && depth_ == 0 && pos_ == text_.size();
}

}  // namespace heracles::sim
