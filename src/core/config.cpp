#include "core/config.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace gist {

std::uint64_t
parseByteSize(const std::string &text)
{
    if (text.empty())
        GIST_FATAL("empty byte-size string");
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        GIST_FATAL("malformed byte-size '", text, "'");
    if (!std::isfinite(value) || value < 0.0)
        GIST_FATAL("byte-size '", text, "' is not a finite non-negative value");
    double scale = 1.0;
    std::string suffix;
    for (const char *p = end; *p != '\0'; ++p)
        if (!std::isspace(static_cast<unsigned char>(*p)))
            suffix += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*p)));
    if (suffix == "k" || suffix == "kb")
        scale = 1024.0;
    else if (suffix == "m" || suffix == "mb")
        scale = 1024.0 * 1024.0;
    else if (suffix == "g" || suffix == "gb")
        scale = 1024.0 * 1024.0 * 1024.0;
    else if (!suffix.empty())
        GIST_FATAL("malformed byte-size suffix '", text, "'");
    const double scaled = value * scale;
    // 2^64 exactly; >= catches the doubles that would wrap on conversion.
    if (scaled >= 18446744073709551616.0)
        GIST_FATAL("byte-size '", text, "' overflows 64 bits");
    return static_cast<std::uint64_t>(scaled);
}

GistConfig
resolveConfig(GistConfig config)
{
    if (const char *env = std::getenv("GIST_MEM_BUDGET"))
        config.mem_budget_bytes = parseByteSize(env);
    if (const char *env = std::getenv("GIST_DEVICE_POOL"))
        config.device_pool_bytes = parseByteSize(env);
    if (const char *env = std::getenv("GIST_TIER_PATH"))
        config.tier_path = env;
    if (const char *env = std::getenv("GIST_TIER_GBPS"))
        config.tier_bandwidth_bytes_per_s = std::strtod(env, nullptr) * 1e9;
    if (const char *env = std::getenv("GIST_ASYNC"))
        config.async_codec = std::strtol(env, nullptr, 10) != 0;
    if (const char *env = std::getenv("GIST_CODEC_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            config.codec_threads = static_cast<int>(v);
        else
            GIST_WARN("ignoring bad GIST_CODEC_THREADS value '", env, "'");
    }
    return config;
}

} // namespace gist
