// Crash-safe file writes for the memo store.
//
// Every byte the memo store persists flows through atomic_write_file().
// A bare `ofstream << body` store can be torn by a crash between the first
// byte and the last, and a torn entry that still parses is exactly the
// stale-result bug the cache exists to prevent. atomic_write_file() writes
// a same-directory temp file, fsyncs it, rename()s over the target, and
// fsyncs the directory — so a kill at ANY instant leaves either the old
// file, the new file, or an orphaned `*.tmp` that opening the store deletes.
// The no-bare-ofstream-store lint rule bans every other write path under
// src/runner; the open() calls here carry the tree's only allow() anchors.
//
// The write loop also owns EINTR and short writes once, and routes every
// opportunity through an optional fault::IoFaultInjector so the cache
// tests can replay a hostile kernel deterministically (injected faults are
// decided BEFORE the syscall and never touch real fds' data).
//
// Crash points (fault::IoFaultInjector::crash_point) dot the atomic write
// path between its steps; the crash-point cache tests arm each in turn and
// audit the store a restarted process reloads.
#pragma once

#include <string>
#include <string_view>

#include "fault/io_fault.hpp"
#include "util/result.hpp"

namespace retri::runner {

/// Crash-point names in atomic_write_file, in execution order. Tests
/// iterate this list so a new point cannot be added without being audited.
/// The "serve." prefix is the names' historical spelling; crash plans and
/// tests arm them by these exact strings.
inline constexpr std::string_view kCrashPoints[] = {
    "serve.io.tmp_open",       // temp file exists, empty
    "serve.io.tmp_partial",    // temp file holds a strict prefix
    "serve.io.tmp_written",    // temp file complete, not yet durable
    "serve.io.tmp_synced",     // temp file fsynced, rename pending
    "serve.io.renamed",        // target replaced, directory entry not synced
};

/// Atomically replaces `path` with `contents` (temp + fsync + rename +
/// directory fsync). On failure the target is untouched; a leftover
/// `<path>.tmp` from a crashed attempt is the caller's to delete when it
/// next opens the store. `op_key` names the operation for fault decisions
/// (use the cache key / file stem so decisions are scheduling-invariant);
/// `faults` may be null.
///
/// Returns 0 or a one-line error. Propagates fault::CrashPointHit — by
/// design, nothing is cleaned up on that path.
util::Result<int, std::string> atomic_write_file(
    const std::string& path, std::string_view contents,
    std::string_view op_key, fault::IoFaultInjector* faults);

}  // namespace retri::runner
