/**
 * @file
 * A minimal JSON reader for the tooling side of the project.
 *
 * fbdp-report has to load stats/telemetry/benchmark JSON produced by
 * the simulator (and by google-benchmark) without pulling an external
 * dependency into the build, so this parses the whole of RFC 8259
 * into a small immutable value tree: object, array, string, number,
 * bool, null.  It is a strict parser — trailing garbage, unterminated
 * literals and bad escapes are errors — but it is not a validator
 * for pathological depth (the recursion guard simply rejects inputs
 * nested deeper than a generous fixed bound, maxDepth).
 *
 * Numbers follow RFC 8259's grammar exactly,
 * `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, so `01`,
 * `1.`, `.5` and `+1` are errors.  They are lossless for the values
 * the simulator emits.  Integer tokens that fit in 64 bits keep their
 * exact value (asInt64() / asUint64()) alongside the double view, so
 * a 64-bit event counter survives a write/parse round trip bit for
 * bit; `-0` reads as the double negative zero, which is what
 * encodeNumber(-0.0) writes.  Other tokens read as the nearest
 * double.  A finite token too large for a double (`1e400`) is an
 * error; one too small for it underflows silently to the nearest
 * subnormal or to zero of the same sign (`1e-400` reads as 0).  As a
 * documented extension beyond RFC 8259 the parser accepts the
 * literals `NaN`, `Infinity` and `-Infinity`, which encodeNumber()
 * emits for non-finite doubles — the cross-run ledger re-reads its
 * own records and must not silently turn a NaN metric into a parse
 * error or a null.
 *
 * Strings decode every escape; an escaped surrogate pair becomes its
 * one code point in UTF-8, and a lone escaped surrogate passes
 * through as a three-byte sequence.  Other bytes are copied as they
 * are (no UTF-8 validation); raw control characters are errors.
 */

#ifndef FBDP_COMMON_JSON_HH
#define FBDP_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fbdp {
namespace json {

class Value;
using ValuePtr = std::shared_ptr<const Value>;

/** One parsed JSON value. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return _kind; }

    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    /** Value accessors; asserting the matching kind. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<ValuePtr> &asArray() const;

    /**
     * True when the number was parsed (or built) from an integer
     * token that fits 64 bits — its exact value is available through
     * asInt64()/asUint64() even beyond 2^53, where the double view
     * rounds.
     */
    bool isInteger() const;

    /** Exact integer value; asserts isInteger() and signed range. */
    std::int64_t asInt64() const;

    /** Exact integer value; asserts isInteger() and non-negative. */
    std::uint64_t asUint64() const;

    /** Object members in document order (duplicate keys keep the
     *  later value, like every mainstream parser). */
    const std::vector<std::pair<std::string, ValuePtr>> &
    members() const;

    /** Object member by key, or nullptr. */
    ValuePtr get(const std::string &key) const;

    // Construction (used by the parser; also handy in tests).
    static ValuePtr makeNull();
    static ValuePtr makeBool(bool b);
    static ValuePtr makeNumber(double d);
    static ValuePtr makeInteger(std::int64_t v);
    static ValuePtr makeUnsigned(std::uint64_t v);
    static ValuePtr makeString(std::string s);
    static ValuePtr makeArray(std::vector<ValuePtr> items);
    static ValuePtr
    makeObject(std::vector<std::pair<std::string, ValuePtr>> mems);

  private:
    explicit Value(Kind k) : _kind(k) {}

    /** Exact-integer sidecar of a Number (see isInteger()). */
    enum class IntRep { None, Signed, Unsigned };

    Kind _kind;
    bool b = false;
    double num = 0.0;
    IntRep intRep = IntRep::None;
    std::uint64_t intBits = 0; ///< value (Unsigned) or int64 bits
    std::string str;
    std::vector<ValuePtr> arr;
    std::vector<std::pair<std::string, ValuePtr>> obj;
};

/** Result of a parse: either a value or a diagnostic. */
struct ParseResult
{
    ValuePtr value;    ///< null on failure
    std::string error; ///< empty on success, else "line N: what"

    bool ok() const { return value != nullptr; }
};

/** Deepest nesting parse() accepts: a top-level value is at depth 1
 *  and each enclosing array or object adds one. */
inline constexpr int maxDepth = 256;

/** Parse one complete JSON document (trailing whitespace allowed). */
ParseResult parse(const std::string &text);

/** Parse the contents of @p path; IO failures land in error. */
ParseResult parseFile(const std::string &path);

/**
 * Render a number the parser reads back exactly.  Finite doubles use
 * the shortest %g form that round-trips (so "0.25" stays "0.25", not
 * seventeen digits); non-finite doubles become the NaN / Infinity /
 * -Infinity literal extension.  The integer overloads print all 64
 * bits — use them for counters, which a double transit would round
 * above 2^53.
 */
std::string encodeNumber(double d);
std::string encodeNumber(std::int64_t v);
std::string encodeNumber(std::uint64_t v);

} // namespace json
} // namespace fbdp

#endif // FBDP_COMMON_JSON_HH
