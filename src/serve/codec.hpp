// Exact JSON codecs for the memo store's keys and bodies.
//
// Every sweep-trial cache entry is keyed by canonical_cell() and stores an
// encode_result() body, so these functions are held to a stricter standard
// than the display-oriented ResultSink:
//   - encode/decode is lossless for every field, including 64-bit seeds and
//     nanosecond durations (serialized as integer ns, never floating
//     seconds) and doubles (shortest-form to_chars, re-parsed exactly by
//     util::parse_json's raw-token from_chars);
//   - canonical_cell() is the cache-key input: a compact, fixed-field-order
//     rendering of one trial's full ExperimentConfig with the derived trial
//     seed baked in. Two cells are byte-equal iff run_experiment would see
//     identical inputs;
//   - decode_result is strict (Result-returning): a missing or wrong-kind
//     field is an error, never a silent default, because a cache body that
//     decodes "close enough" is exactly the stale-result bug the cache must
//     not have.
#pragma once

#include <string>
#include <string_view>

#include "runner/experiment.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"

namespace retri::serve {

// --- ExperimentConfig ------------------------------------------------------

/// Writes `config` as an object value (all fields, fixed order).
void write_config(util::JsonWriter& json, const runner::ExperimentConfig& config);

/// Compact one-line rendering of `config`; with the trial seed already
/// substituted this is the canonical cell fed to ResultCache::make_key.
std::string canonical_cell(const runner::ExperimentConfig& config);

// --- ExperimentResult ------------------------------------------------------

void write_result(util::JsonWriter& json, const runner::ExperimentResult& result);
std::string encode_result(const runner::ExperimentResult& result);

util::Result<runner::ExperimentResult, std::string> decode_result(
    const util::JsonValue& doc);
/// Parse + decode in one step (cache bodies arrive as text).
util::Result<runner::ExperimentResult, std::string> decode_result_text(
    std::string_view text);

}  // namespace retri::serve
