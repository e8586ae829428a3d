/**
 * @file
 * Offline profile-report builder behind tools/gist_prof: joins a
 * Chrome trace JSON, a metrics JSONL and a memprof timeline JSON into
 * one human-readable text report (top-k spans, GEMM GFLOP/s by kind,
 * per-node critical path, stall summary, peak-memory attribution).
 * Pure functions over parsed JsonValues so tests can drive them
 * without touching the filesystem.
 */

#pragma once

#include <string>
#include <vector>

#include "util/jsonin.hpp"

namespace gist::obs {

struct ProfReportOptions
{
    int top_k = 12; ///< rows in the span and attribution tables
};

/** Read and parse one JSON file. False + @p err on failure. */
bool loadJsonFile(const std::string &path, JsonValue &out,
                  std::string *err = nullptr);

/** Read a JSONL file (one JSON object per non-empty line). */
bool loadJsonLines(const std::string &path, std::vector<JsonValue> &out,
                   std::string *err = nullptr);

/**
 * Render the report. Any input may be null — its sections are skipped
 * with a note, so partial artifact sets still produce a report.
 */
std::string renderProfReport(const JsonValue *trace,
                             const std::vector<JsonValue> *metrics,
                             const JsonValue *memprof,
                             const ProfReportOptions &opts = {});

} // namespace gist::obs
