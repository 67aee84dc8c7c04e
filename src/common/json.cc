#include "common/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace fbdp {
namespace json {

bool
Value::asBool() const
{
    fbdp_assert(isBool(), "json value is not a bool");
    return b;
}

double
Value::asNumber() const
{
    fbdp_assert(isNumber(), "json value is not a number");
    return num;
}

bool
Value::isInteger() const
{
    return _kind == Kind::Number && intRep != IntRep::None;
}

std::int64_t
Value::asInt64() const
{
    fbdp_assert(isInteger(), "json value is not an exact integer");
    if (intRep == IntRep::Signed)
        return static_cast<std::int64_t>(intBits);
    fbdp_assert(intBits <= static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max()),
                "json integer %llu overflows int64",
                static_cast<unsigned long long>(intBits));
    return static_cast<std::int64_t>(intBits);
}

std::uint64_t
Value::asUint64() const
{
    fbdp_assert(isInteger(), "json value is not an exact integer");
    if (intRep == IntRep::Signed) {
        const auto v = static_cast<std::int64_t>(intBits);
        fbdp_assert(v >= 0, "json integer %lld is negative",
                    static_cast<long long>(v));
        return static_cast<std::uint64_t>(v);
    }
    return intBits;
}

const std::string &
Value::asString() const
{
    fbdp_assert(isString(), "json value is not a string");
    return str;
}

const std::vector<ValuePtr> &
Value::asArray() const
{
    fbdp_assert(isArray(), "json value is not an array");
    return arr;
}

const std::vector<std::pair<std::string, ValuePtr>> &
Value::members() const
{
    fbdp_assert(isObject(), "json value is not an object");
    return obj;
}

ValuePtr
Value::get(const std::string &key) const
{
    fbdp_assert(isObject(), "json value is not an object");
    // Later duplicates win: scan back to front.
    for (auto it = obj.rbegin(); it != obj.rend(); ++it) {
        if (it->first == key)
            return it->second;
    }
    return nullptr;
}

ValuePtr
Value::makeNull()
{
    return ValuePtr(new Value(Kind::Null));
}

ValuePtr
Value::makeBool(bool v)
{
    auto p = new Value(Kind::Bool);
    p->b = v;
    return ValuePtr(p);
}

ValuePtr
Value::makeNumber(double d)
{
    auto p = new Value(Kind::Number);
    p->num = d;
    return ValuePtr(p);
}

ValuePtr
Value::makeInteger(std::int64_t v)
{
    auto p = new Value(Kind::Number);
    p->num = static_cast<double>(v);
    p->intRep = IntRep::Signed;
    p->intBits = static_cast<std::uint64_t>(v);
    return ValuePtr(p);
}

ValuePtr
Value::makeUnsigned(std::uint64_t v)
{
    auto p = new Value(Kind::Number);
    p->num = static_cast<double>(v);
    p->intRep = IntRep::Unsigned;
    p->intBits = v;
    return ValuePtr(p);
}

ValuePtr
Value::makeString(std::string s)
{
    auto p = new Value(Kind::String);
    p->str = std::move(s);
    return ValuePtr(p);
}

ValuePtr
Value::makeArray(std::vector<ValuePtr> items)
{
    auto p = new Value(Kind::Array);
    p->arr = std::move(items);
    return ValuePtr(p);
}

ValuePtr
Value::makeObject(std::vector<std::pair<std::string, ValuePtr>> mems)
{
    auto p = new Value(Kind::Object);
    p->obj = std::move(mems);
    return ValuePtr(p);
}

namespace {

/** Recursive-descent parser over an in-memory buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    ParseResult
    run()
    {
        ValuePtr v = parseValue();
        if (!v)
            return {nullptr, err};
        skipWs();
        if (pos != s.size())
            return {nullptr, where() + "trailing characters after "
                                       "the document"};
        return {v, ""};
    }

  private:
    const std::string &s;
    size_t pos = 0;
    int depth = 0;
    std::string err;

    std::string
    where() const
    {
        size_t line = 1;
        for (size_t i = 0; i < pos && i < s.size(); ++i) {
            if (s[i] == '\n')
                ++line;
        }
        return "line " + std::to_string(line) + ": ";
    }

    ValuePtr
    fail(const std::string &what)
    {
        if (err.empty())
            err = where() + what;
        return nullptr;
    }

    void
    skipWs()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'
                   || s[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s.compare(pos, n, word) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    ValuePtr
    parseValue()
    {
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        if (++depth > maxDepth)
            return fail("nesting too deep");
        ValuePtr v;
        switch (s[pos]) {
          case '{':
            v = parseObject();
            break;
          case '[':
            v = parseArray();
            break;
          case '"':
            v = parseString();
            break;
          case 't':
            v = literal("true") ? Value::makeBool(true)
                                : fail("bad literal");
            break;
          case 'f':
            v = literal("false") ? Value::makeBool(false)
                                 : fail("bad literal");
            break;
          case 'n':
            v = literal("null") ? Value::makeNull()
                                : fail("bad literal");
            break;
          default:
            v = parseNumber();
            break;
        }
        --depth;
        return v;
    }

    ValuePtr
    parseObject()
    {
        ++pos; // '{'
        std::vector<std::pair<std::string, ValuePtr>> mems;
        skipWs();
        if (consume('}'))
            return Value::makeObject(std::move(mems));
        while (true) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseStringRaw(key))
                return nullptr;
            if (!consume(':'))
                return fail("expected ':' after object key");
            ValuePtr v = parseValue();
            if (!v)
                return nullptr;
            mems.emplace_back(std::move(key), std::move(v));
            if (consume(','))
                continue;
            if (consume('}'))
                return Value::makeObject(std::move(mems));
            return fail("expected ',' or '}' in object");
        }
    }

    ValuePtr
    parseArray()
    {
        ++pos; // '['
        std::vector<ValuePtr> items;
        skipWs();
        if (consume(']'))
            return Value::makeArray(std::move(items));
        while (true) {
            ValuePtr v = parseValue();
            if (!v)
                return nullptr;
            items.push_back(std::move(v));
            if (consume(','))
                continue;
            if (consume(']'))
                return Value::makeArray(std::move(items));
            return fail("expected ',' or ']' in array");
        }
    }

    ValuePtr
    parseString()
    {
        std::string out;
        if (!parseStringRaw(out))
            return nullptr;
        return Value::makeString(std::move(out));
    }

    bool
    parseStringRaw(std::string &out)
    {
        ++pos; // opening quote
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= s.size()) {
                    fail("unterminated escape");
                    return false;
                }
                const char e = s[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    long cp = hex4(pos);
                    if (cp < 0) {
                        fail("bad \\u escape");
                        return false;
                    }
                    pos += 4;
                    // An escaped surrogate pair is one code point
                    // beyond the BMP; a lone surrogate passes through
                    // as its own three-byte sequence.
                    const long lo = s.compare(pos, 2, "\\u") == 0
                        ? hex4(pos + 2) : -1;
                    if (cp >= 0xD800 && cp < 0xDC00 && lo >= 0xDC00
                        && lo < 0xE000) {
                        cp = 0x10000 + ((cp - 0xD800) << 10)
                            + (lo - 0xDC00);
                        pos += 6;
                    }
                    // UTF-8: a lead byte, then 6 bits per byte.
                    const int n = cp < 0x80 ? 0 : cp < 0x800 ? 1
                        : cp < 0x10000 ? 2 : 3;
                    const long lead[] = {0, 0xC0, 0xE0, 0xF0};
                    out += static_cast<char>(lead[n] | (cp >> (6 * n)));
                    for (int k = n - 1; k >= 0; --k)
                        out += static_cast<char>(
                            0x80 | ((cp >> (6 * k)) & 0x3F));
                    break;
                  }
                  default:
                    fail("bad escape character");
                    return false;
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("control character inside string");
                return false;
            }
            out += c;
            ++pos;
        }
        fail("unterminated string");
        return false;
    }

    ValuePtr
    parseNumber()
    {
        // Non-finite literal extension (see the file header): the
        // simulator's own writers emit these for NaN/Inf metrics.
        if (literal("NaN"))
            return Value::makeNumber(
                std::numeric_limits<double>::quiet_NaN());
        if (literal("Infinity"))
            return Value::makeNumber(
                std::numeric_limits<double>::infinity());
        if (literal("-Infinity"))
            return Value::makeNumber(
                -std::numeric_limits<double>::infinity());

        const size_t start = pos;
        while (pos < s.size() && s[pos]
               && std::strchr("0123456789.eE+-", s[pos]))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        const std::string tok = s.substr(start, pos - start);

        // RFC 8259, -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?,
        // over the whole run: "01", "1." and "1-2" are malformed
        // numbers, not a number followed by garbage.
        const char *p = tok.c_str();
        auto digits = [&p] {
            const char *from = p;
            while (*p >= '0' && *p <= '9')
                ++p;
            return p > from;
        };
        const bool neg = *p == '-';
        p += neg;
        bool ok = *p == '0' ? (++p, true) : digits();
        if (ok && *p == '.')
            ok = (++p, digits());
        if (ok && (*p == 'e' || *p == 'E')) {
            p += p[1] == '+' || p[1] == '-' ? 2 : 1;
            ok = digits();
        }
        if (!ok || *p) {
            pos = start;
            return fail("malformed number '" + tok + "'");
        }

        // Keep integer tokens exact when they fit 64 bits: counters
        // beyond 2^53 must survive a round trip bit for bit.  "-0" is
        // what encodeNumber() writes for a negative zero, so it reads
        // back as one.
        if (tok.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            if (neg) {
                const long long v = std::strtoll(tok.c_str(), nullptr, 10);
                if (errno == 0)
                    return v == 0 ? Value::makeNumber(-0.0)
                                  : Value::makeInteger(v);
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), nullptr, 10);
                if (errno == 0)
                    return Value::makeUnsigned(v);
            }
            // Out of 64-bit range: fall through to the double path.
        }

        // The token is grammatical, so strtod reads all of it.  A
        // finite token too large for a double is an error; one too
        // small rounds to the nearest double (subnormal or zero).
        const double d = std::strtod(tok.c_str(), nullptr);
        if (std::isinf(d)) {
            pos = start;
            return fail("number '" + tok + "' overflows a double");
        }
        return Value::makeNumber(d);
    }

    /** The four hex digits at @p at as one UTF-16 code unit, or -1
     *  when they are missing or not hex. */
    long
    hex4(size_t at) const
    {
        if (at + 4 > s.size())
            return -1;
        const std::string h = s.substr(at, 4);
        if (h.find_first_not_of("0123456789abcdefABCDEF")
            != std::string::npos)
            return -1;
        return std::strtol(h.c_str(), nullptr, 16);
    }
};

} // namespace

ParseResult
parse(const std::string &text)
{
    return Parser(text).run();
}

std::string
encodeNumber(double d)
{
    if (std::isnan(d))
        return "NaN";
    if (std::isinf(d))
        return d > 0 ? "Infinity" : "-Infinity";
    // Shortest %g precision that parses back to the same double:
    // common values stay readable, every value stays exact.
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

std::string
encodeNumber(std::int64_t v)
{
    return std::to_string(v);
}

std::string
encodeNumber(std::uint64_t v)
{
    return std::to_string(v);
}

ParseResult
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {nullptr, "cannot open " + path};
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

} // namespace json
} // namespace fbdp
