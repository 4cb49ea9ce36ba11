// Crash-consistent file replacement.
//
// Every artifact a run leaves behind (results CSVs, checkpoints, resume
// manifests) goes through write_file_atomic: the bytes land in a temp file
// in the destination directory, are flushed and fsync'd, and then renamed
// over the target in one atomic step (POSIX rename semantics), followed by
// an fsync of the containing directory so the rename itself survives a
// crash. A reader therefore only ever sees the old complete file or the
// new complete file — never a truncated hybrid.
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

namespace reqblock {

/// Atomically replaces `path` with `contents`. Throws std::runtime_error
/// (message includes the path and errno text) on any failure; on failure
/// the destination is left untouched and the temp file is removed.
void write_file_atomic(const std::string& path, std::string_view contents);

/// The same for contents in pieces: they are written one after another
/// into the one temp file, so the caller never joins them into a copy.
void write_file_atomic(const std::string& path,
                       std::span<const std::string_view> pieces);

/// Convenience for text writers: `fill` receives an ostream, and the
/// accumulated bytes are written atomically as above. The stream's failbit
/// or badbit after `fill` returns is reported as an error.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& fill);

}  // namespace reqblock
