/**
 * @file
 * Minimal JSON reader for the profiling toolchain (trace files, metrics
 * JSONL, memprof timelines and their hybrid plans) and for gist_serve's
 * job specs. The profiling artifacts are all written by this codebase,
 * so the parser favors smallness and clear errors over speed. Strict
 * JSON (RFC 8259) with one extension: none.
 *
 * Values are an immutable tree; object member order is preserved (the
 * writer side is deterministic, and tests diff round-trips).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gist {

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }

    /** Array elements (empty for non-arrays). */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in file order (empty for non-objects). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /** Convenience typed lookups with defaults. */
    double numberOr(const std::string &key, double def) const;
    std::string stringOr(const std::string &key,
                         const std::string &def) const;
    std::int64_t intOr(const std::string &key, std::int64_t def) const;

    /**
     * Parse @p text into @p out. On failure returns false and, when
     * @p err is non-null, stores a one-line reason with offset.
     */
    static bool parse(std::string_view text, JsonValue &out,
                      std::string *err = nullptr);

  private:
    friend class JsonParser;
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace gist
