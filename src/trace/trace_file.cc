#include "trace/trace_file.h"

#include <cerrno>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <system_error>

#include "util/strings.h"

namespace reqblock {

namespace {
// MSR timestamps are Windows FILETIME: 100 ns ticks.
constexpr std::int64_t kTicksToNs = 100;

// "<source>:<line>" prefix for parse errors, so a bad trace file points
// at the exact offending record.
std::string at(const std::string& source, std::uint64_t line_no) {
  return (source.empty() ? std::string("trace") : source) + ':' +
         std::to_string(line_no);
}

// Tick → ns without signed overflow: real FILETIME stamps (~1.28e17 ticks
// for a 2007 trace) exceed int64 nanoseconds. Absolute times past the
// representable range saturate; exact arrivals come from rebasing first.
SimTime ticks_to_ns_saturating(std::uint64_t ticks) {
  constexpr std::uint64_t kMaxTicks =
      static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max()) /
      static_cast<std::uint64_t>(kTicksToNs);
  if (ticks > kMaxTicks) return std::numeric_limits<SimTime>::max();
  return static_cast<SimTime>(ticks) * kTicksToNs;
}

// Sets the page extent of the byte range [offset, offset + size); a
// zero-byte request still touches the page holding the offset. A range
// that wraps the 64-bit byte space or a page count that does not fit the
// request is corrupt input, not a giant request: false.
bool set_extent(IoRequest& req, std::uint64_t offset, std::uint64_t size,
                std::uint64_t page_size) {
  const std::uint64_t span = size == 0 ? 1 : size;
  if (offset > std::numeric_limits<std::uint64_t>::max() - span) return false;
  const Lpn first = offset / page_size;
  const Lpn last = (offset + span - 1) / page_size;
  if (last - first >= std::numeric_limits<std::uint32_t>::max()) return false;
  req.lpn = first;
  req.pages = static_cast<std::uint32_t>(last - first + 1);
  return true;
}

// The line loop of both formats. `parse_line(line, &stamp)` returns a
// request and its stamp in the format's unit; `to_ns` converts a rebased
// stamp.
template <typename ParseLine>
std::vector<IoRequest> read_lines(std::istream& in,
                                  const TraceFileOptions& opts,
                                  std::string_view format,
                                  ParseLine parse_line,
                                  SimTime (*to_ns)(std::uint64_t)) {
  std::vector<IoRequest> out;
  std::string line;
  std::uint64_t id = 0;
  std::uint64_t line_no = 0;
  bool have_base = false;
  std::uint64_t base = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline succeeding with eof set means the line had no trailing
    // newline — on a file, an unparsable one is a cut-off final record.
    const bool partial_tail = in.eof();
    std::uint64_t stamp = 0;
    auto req = parse_line(line, &stamp);
    if (!req) {
      const auto body = trim(line);
      if (body.empty() || body.front() == '#') continue;
      if (!opts.skip_malformed) {
        throw std::runtime_error(at(opts.source_name, line_no) +
                                 ": malformed " + std::string(format) +
                                 " trace line: " + line);
      }
      if (opts.detect_truncation && partial_tail) {
        throw std::runtime_error(
            at(opts.source_name, line_no) +
            ": trace ends mid-record (truncated file?): " + line);
      }
      continue;
    }
    if (opts.rebase_time) {
      // Traces are time-ordered; a stray earlier stamp clamps to the base.
      if (!have_base) {
        have_base = true;
        base = stamp;
      }
      req->arrival = to_ns(stamp >= base ? stamp - base : 0);
    }
    req->id = id++;
    out.push_back(*req);
    if (opts.max_requests != 0 && out.size() >= opts.max_requests) break;
  }
  if (in.bad()) {
    throw std::runtime_error(at(opts.source_name, line_no) +
                             ": I/O error while reading trace (short read)");
  }
  return out;
}

template <typename Options>
std::vector<IoRequest> read_file(
    const std::string& path, Options opts,
    std::vector<IoRequest> (*parse_stream)(std::istream&, const Options&)) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path + " (" +
                             std::generic_category().message(errno) + ")");
  }
  if (opts.source_name.empty()) opts.source_name = path;
  opts.detect_truncation = true;
  return parse_stream(in, opts);
}
}  // namespace

std::optional<IoRequest> parse_msr_line(std::string_view line,
                                        const MsrParseOptions& opts,
                                        std::uint64_t* raw_ticks) {
  line = trim(line);
  if (line.empty() || line.front() == '#') return std::nullopt;
  const auto fields = split(line, ',');
  if (fields.size() < 6) return std::nullopt;

  const auto ts = parse_u64(fields[0]);
  const auto offset = parse_u64(fields[4]);
  const auto size = parse_u64(fields[5]);
  if (!ts || !offset || !size) return std::nullopt;

  const std::string_view type_field = trim(fields[3]);
  IoRequest req;
  if (iequals(type_field, "Read") || iequals(type_field, "R")) {
    req.type = IoType::kRead;
  } else if (iequals(type_field, "Write") || iequals(type_field, "W")) {
    req.type = IoType::kWrite;
  } else {
    return std::nullopt;
  }
  if (!set_extent(req, *offset, *size, opts.page_size)) return std::nullopt;
  if (raw_ticks != nullptr) *raw_ticks = *ts;
  req.arrival = ticks_to_ns_saturating(*ts);
  return req;
}

std::optional<IoRequest> parse_spc_line(std::string_view line,
                                        const SpcParseOptions& opts) {
  line = trim(line);
  if (line.empty() || line.front() == '#') return std::nullopt;
  const auto fields = split(line, ',');
  if (fields.size() < 5) return std::nullopt;

  const auto asu = parse_u64(fields[0]);
  const auto lba = parse_u64(fields[1]);
  const auto size = parse_u64(fields[2]);
  const auto ts = parse_double(fields[4]);
  if (!asu || !lba || !size || !ts || *ts < 0.0) return std::nullopt;

  const std::string_view opcode = trim(fields[3]);
  IoRequest req;
  if (iequals(opcode, "r")) {
    req.type = IoType::kRead;
  } else if (iequals(opcode, "w")) {
    req.type = IoType::kWrite;
  } else {
    return std::nullopt;
  }

  if (opts.asu_filter >= 0 &&
      *asu != static_cast<std::uint64_t>(opts.asu_filter)) {
    return std::nullopt;
  }

  // Reject timestamps the ns clock cannot represent (including inf/nan,
  // which strtod accepts): llround on them is undefined behaviour.
  if (!std::isfinite(*ts) || *ts > 9.0e9) return std::nullopt;

  if (opts.sector_size != 0 &&
      *lba > std::numeric_limits<std::uint64_t>::max() / opts.sector_size) {
    return std::nullopt;
  }
  if (!set_extent(req, *lba * opts.sector_size, *size, opts.page_size)) {
    return std::nullopt;
  }
  req.arrival = static_cast<SimTime>(std::llround(*ts * 1e9));
  if (opts.asu_filter < 0) req.lpn += *asu * opts.asu_stride_pages;
  return req;
}

std::vector<IoRequest> parse_msr_stream(std::istream& in,
                                        const MsrParseOptions& opts) {
  return read_lines(
      in, opts, "MSR",
      [&](std::string_view line, std::uint64_t* ticks) {
        return parse_msr_line(line, opts, ticks);
      },
      ticks_to_ns_saturating);
}

std::vector<IoRequest> parse_spc_stream(std::istream& in,
                                        const SpcParseOptions& opts) {
  return read_lines(
      in, opts, "SPC",
      [&](std::string_view line, std::uint64_t* ns) {
        auto req = parse_spc_line(line, opts);
        if (req) *ns = static_cast<std::uint64_t>(req->arrival);
        return req;
      },
      // SPC arrivals are nanoseconds in [0, 9e18]: they fit SimTime.
      [](std::uint64_t ns) { return static_cast<SimTime>(ns); });
}

std::vector<IoRequest> parse_msr_file(const std::string& path,
                                      const MsrParseOptions& opts) {
  return read_file(path, opts, parse_msr_stream);
}

std::vector<IoRequest> parse_spc_file(const std::string& path,
                                      const SpcParseOptions& opts) {
  return read_file(path, opts, parse_spc_stream);
}

void write_msr_stream(std::ostream& out, const std::vector<IoRequest>& reqs,
                      std::uint64_t page_size, std::string_view hostname) {
  for (const auto& r : reqs) {
    out << (r.arrival / kTicksToNs) << ',' << hostname << ",0,"
        << to_string(r.type) << ',' << (r.lpn * page_size) << ','
        << (static_cast<std::uint64_t>(r.pages) * page_size) << ",0\n";
  }
}

}  // namespace reqblock
