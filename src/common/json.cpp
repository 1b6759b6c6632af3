#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace temp::common {

namespace {

/// Nesting cap: network input must not be able to blow the stack.
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    Parser(const std::string &input, std::string *error)
        : input_(input), error_(error)
    {
    }

    bool
    parse(JsonValue *out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos_ != input_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_) {
            *error_ = "json parse error at byte " +
                      std::to_string(pos_) + ": " + what;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < input_.size()) {
            const char c = input_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < input_.size() ? input_[pos_] : '\0';
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (input_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    value(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than 64 levels");
        if (pos_ >= input_.size())
            return fail("unexpected end of input");
        switch (input_[pos_]) {
        case '{': return object(out, depth);
        case '[': return array(out, depth);
        case '"':
            out->type = JsonValue::Type::String;
            return string(&out->text);
        case 't':
            out->type = JsonValue::Type::Bool;
            out->bool_value = true;
            return literal("true", 4);
        case 'f':
            out->type = JsonValue::Type::Bool;
            out->bool_value = false;
            return literal("false", 5);
        case 'n':
            out->type = JsonValue::Type::Null;
            return literal("null", 4);
        default: return number(out);
        }
    }

    bool
    object(JsonValue *out, int depth)
    {
        out->type = JsonValue::Type::Object;
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (peek() != '"')
                return fail("expected '\"' starting an object key");
            if (!string(&key))
                return false;
            skipWs();
            if (peek() != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue member;
            if (!value(&member, depth + 1))
                return false;
            out->members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue *out, int depth)
    {
        out->type = JsonValue::Type::Array;
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue element;
            if (!value(&element, depth + 1))
                return false;
            out->items.push_back(std::move(element));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    /// Appends one code point as UTF-8.
    static void
    appendUtf8(std::string *out, unsigned code)
    {
        if (code < 0x80) {
            out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else if (code < 0x10000) {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xf0 | (code >> 18)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
    }

    /// Parses the 4 hex digits at `at` (caller checked the length).
    bool
    hex4(std::size_t at, unsigned *code)
    {
        *code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = input_[at + i];
            *code <<= 4;
            if (h >= '0' && h <= '9')
                *code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                *code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                *code |= static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    string(std::string *out)
    {
        ++pos_;  // opening quote
        out->clear();
        while (pos_ < input_.size()) {
            const char c = input_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out->push_back(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= input_.size())
                return fail("unterminated escape");
            const char esc = input_[pos_++];
            switch (esc) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > input_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                if (!hex4(pos_, &code))
                    return false;
                pos_ += 4;
                if (code >= 0xdc00 && code <= 0xdfff)
                    return fail("unpaired low surrogate in \\u "
                                "escape");
                if (code >= 0xd800 && code <= 0xdbff) {
                    // A high surrogate must be followed by a \u-escaped
                    // low surrogate; combine the pair into one code
                    // point so the parsed string stays valid UTF-8.
                    if (pos_ + 6 > input_.size() ||
                        input_[pos_] != '\\' || input_[pos_ + 1] != 'u')
                        return fail("high surrogate not followed by "
                                    "\\u low surrogate");
                    unsigned low = 0;
                    if (!hex4(pos_ + 2, &low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("high surrogate not followed by "
                                    "\\u low surrogate");
                    pos_ += 6;
                    code = 0x10000 + ((code - 0xd800) << 10) +
                           (low - 0xdc00);
                }
                appendUtf8(out, code);
                break;
            }
            default: return fail("unknown escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue *out)
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("expected a value");
        // Integer part: no leading zeros (except a lone 0).
        if (peek() == '0') {
            ++pos_;
        } else {
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected digits after decimal point");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("expected digits in exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        out->type = JsonValue::Type::Number;
        out->text = input_.substr(start, pos_ - start);
        out->number = std::strtod(out->text.c_str(), nullptr);
        // JSON has no infinities: a lexeme that overflows a double
        // (1e999) would reach callers as inf and render back as null.
        if (!std::isfinite(out->number))
            return fail("number out of range");
        return true;
    }

    const std::string &input_;
    std::string *error_;
    std::size_t pos_ = 0;
};

}  // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, member] : members) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

const char *
JsonValue::typeName() const
{
    switch (type) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Number: return "number";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
    }
    return "unknown";
}

bool
parseJson(const std::string &input, JsonValue *out, std::string *error)
{
    return Parser(input, error).parse(out);
}

}  // namespace temp::common
