// Block-trace files, MSR Cambridge and SPC, read by one line loop.
//
// MSR Cambridge, the format of the five MSR traces the paper replays (the
// real traces can be dropped in unchanged; trace/profiles.h substitutes
// for them offline):
//   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
// Timestamp is a Windows FILETIME (100 ns ticks since 1601), Type
// "Read"/"Write", Offset/Size bytes; ResponseTime is ignored.
//
// SPC, the format of the UMass/FIU "Financial" and "WebSearch" traces:
//   ASU,LBA,Size,Opcode,Timestamp[,extra...]
// ASU is an application storage unit id, LBA a 512-byte sector, Size a
// byte count, Opcode 'r'/'w' in any case, Timestamp (fractional) seconds.
//
// The stream parsers skip blank and '#' lines, number the kept requests
// from 0, and rebase in the format's own unit (MSR ticks, SPC ns): the
// first stamp becomes t = 0 and an earlier stamp clamps to it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/io_request.h"

namespace reqblock {

/// The options every trace format reads.
struct TraceFileOptions {
  /// Page size used to convert byte extents to page extents.
  std::uint64_t page_size = 4096;
  /// When true, malformed lines are skipped; when false they throw.
  bool skip_malformed = true;
  /// Rebase timestamps so the first request arrives at t = 0.
  bool rebase_time = true;
  /// Optional cap on parsed requests (0 = no cap).
  std::uint64_t max_requests = 0;
  /// Name used in parse-error messages ("<name>:<line>: ..."); the file
  /// parsers fill it with the path when empty.
  std::string source_name;
  /// Treat a final line that ends mid-record (no trailing newline and
  /// unparsable) as an error, the signature of a truncated copy. The file
  /// parsers enable this; stream callers keep the lenient default so
  /// embedded literals need no trailing newline.
  bool detect_truncation = false;
};

struct MsrParseOptions : TraceFileOptions {};

struct SpcParseOptions : TraceFileOptions {
  std::uint32_t sector_size = 512;
  /// Keep only this ASU (-1 = all ASUs, offset by ASU to keep them
  /// disjoint in the logical space).
  std::int32_t asu_filter = -1;
  /// Pages reserved per ASU when merging all ASUs into one address space.
  Lpn asu_stride_pages = 1ULL << 26;
};

/// Parses a single MSR CSV line; nullopt if malformed. Arrival is the
/// timestamp in nanoseconds, saturated to the SimTime range (real FILETIME
/// stamps overflow it; stream parsing rebases in ticks first, so it is
/// exact). `raw_ticks`, when non-null, receives the timestamp field.
std::optional<IoRequest> parse_msr_line(std::string_view line,
                                        const MsrParseOptions& opts,
                                        std::uint64_t* raw_ticks = nullptr);

/// Parses one SPC line; nullopt if malformed or filtered out.
std::optional<IoRequest> parse_spc_line(std::string_view line,
                                        const SpcParseOptions& opts);

/// Parse a whole stream. Throw std::runtime_error (with source_name and
/// line number) on an I/O error mid-stream, on a malformed line when
/// skip_malformed is off, or on a truncated final record when
/// detect_truncation is on.
std::vector<IoRequest> parse_msr_stream(std::istream& in,
                                        const MsrParseOptions& opts);
std::vector<IoRequest> parse_spc_stream(std::istream& in,
                                        const SpcParseOptions& opts);

/// Parse a file with truncation detection on and the path in every error
/// message; throw std::runtime_error (naming the path and errno) if the
/// file cannot be opened.
std::vector<IoRequest> parse_msr_file(const std::string& path,
                                      const MsrParseOptions& opts);
std::vector<IoRequest> parse_spc_file(const std::string& path,
                                      const SpcParseOptions& opts);

/// Serializes requests back to MSR CSV (used by tests for round-trips and
/// by the synthetic generator to export traces for other simulators).
void write_msr_stream(std::ostream& out, const std::vector<IoRequest>& reqs,
                      std::uint64_t page_size = 4096,
                      std::string_view hostname = "synthetic");

}  // namespace reqblock
