// The one JSON encoding of an ExperimentConfig and of an ExperimentResult.
//
// Both the memo store (runner::memoize keys every sweep-trial entry by
// canonical_cell() and stores an encode_result() body) and the sweep
// artifact (ResultSink writes each point's config with write_config() and
// each trial with write_result()) use these writers, so what an artifact
// reports and what a memo key covers cannot drift apart. They are held to
// the memo store's standard:
//   - encode/decode is lossless for every field, including 64-bit seeds and
//     nanosecond durations (serialized as integer ns, never floating
//     seconds) and doubles (shortest-form to_chars, re-parsed exactly by
//     util::parse_json's raw-token from_chars);
//   - canonical_cell() is a compact, fixed-field-order rendering of one
//     trial's full ExperimentConfig with the derived trial seed baked in.
//     Two cells are byte-equal iff run_experiment would see identical
//     inputs;
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

namespace retri::runner {

// --- ExperimentConfig ------------------------------------------------------

/// Writes `config` as an object value (all fields, fixed order).
void write_config(util::JsonWriter& json, const ExperimentConfig& config);

/// Compact one-line rendering of `config`; with the trial seed already
/// substituted this is the canonical cell fed to ResultCache::make_key.
std::string canonical_cell(const ExperimentConfig& config);

// --- ExperimentResult ------------------------------------------------------

/// Writes `result` as an object value; its "metrics" member is
/// obs::write_metrics_object's encoding.
void write_result(util::JsonWriter& json, const ExperimentResult& result);
/// Compact one-line write_result: the memo store's entry body.
std::string encode_result(const ExperimentResult& result);

util::Result<ExperimentResult, std::string> decode_result(
    const util::JsonValue& doc);
/// Parse + decode in one step (cache bodies arrive as text).
util::Result<ExperimentResult, std::string> decode_result_text(
    std::string_view text);

}  // namespace retri::runner
