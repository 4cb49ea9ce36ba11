#include "trace/trace_file.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace reqblock {
namespace {

MsrParseOptions opts() { return MsrParseOptions{}; }

TEST(MsrTraceTest, ParsesWellFormedLine) {
  const auto r = parse_msr_line(
      "128166372003061629,hm,1,Read,8192,4096,432", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, IoType::kRead);
  EXPECT_EQ(r->lpn, 2u);      // 8192 / 4096
  EXPECT_EQ(r->pages, 1u);    // 4096 bytes = one page
}

TEST(MsrTraceTest, ConvertsTicksToNanoseconds) {
  const auto r = parse_msr_line("10,h,0,Write,0,4096,0", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->arrival, 1000);  // 10 ticks * 100 ns
}

TEST(MsrTraceTest, UnalignedExtentRoundsOut) {
  // Offset 1000, size 5000 touches bytes [1000, 6000) => pages 0 and 1.
  const auto r = parse_msr_line("0,h,0,Write,1000,5000,0", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lpn, 0u);
  EXPECT_EQ(r->pages, 2u);
}

TEST(MsrTraceTest, ZeroSizeTouchesOnePage) {
  const auto r = parse_msr_line("0,h,0,Read,8192,0,0", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lpn, 2u);
  EXPECT_EQ(r->pages, 1u);
}

TEST(MsrTraceTest, CaseInsensitiveType) {
  EXPECT_EQ(parse_msr_line("0,h,0,WRITE,0,4096,0", opts())->type,
            IoType::kWrite);
  EXPECT_EQ(parse_msr_line("0,h,0,read,0,4096,0", opts())->type,
            IoType::kRead);
  EXPECT_EQ(parse_msr_line("0,h,0,W,0,4096,0", opts())->type,
            IoType::kWrite);
}

TEST(MsrTraceTest, MalformedLinesRejected) {
  EXPECT_FALSE(parse_msr_line("", opts()).has_value());
  EXPECT_FALSE(parse_msr_line("# comment", opts()).has_value());
  EXPECT_FALSE(parse_msr_line("1,2,3", opts()).has_value());
  EXPECT_FALSE(parse_msr_line("x,h,0,Read,0,4096,0", opts()).has_value());
  EXPECT_FALSE(parse_msr_line("0,h,0,Erase,0,4096,0", opts()).has_value());
  EXPECT_FALSE(parse_msr_line("0,h,0,Read,abc,4096,0", opts()).has_value());
}

TEST(MsrTraceTest, StreamParsingRebasesTimeAndNumbersIds) {
  std::istringstream in(
      "1000,h,0,Read,0,4096,0\n"
      "2000,h,0,Write,4096,8192,0\n");
  const auto reqs = parse_msr_stream(in, opts());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].arrival, 0);
  EXPECT_EQ(reqs[1].arrival, 100000);  // (2000-1000) ticks
  EXPECT_EQ(reqs[0].id, 0u);
  EXPECT_EQ(reqs[1].id, 1u);
  EXPECT_EQ(reqs[1].pages, 2u);
}

TEST(MsrTraceTest, SkipsMalformedByDefaultThrowsWhenStrict) {
  std::istringstream in1("garbage\n0,h,0,Read,0,4096,0\n");
  EXPECT_EQ(parse_msr_stream(in1, opts()).size(), 1u);

  MsrParseOptions strict = opts();
  strict.skip_malformed = false;
  std::istringstream in2("garbage\n");
  EXPECT_THROW(parse_msr_stream(in2, strict), std::runtime_error);
}

TEST(MsrTraceTest, MaxRequestsCap) {
  std::istringstream in(
      "0,h,0,Read,0,4096,0\n"
      "1,h,0,Read,0,4096,0\n"
      "2,h,0,Read,0,4096,0\n");
  MsrParseOptions capped = opts();
  capped.max_requests = 2;
  EXPECT_EQ(parse_msr_stream(in, capped).size(), 2u);
}

TEST(MsrTraceTest, RoundTripThroughWriter) {
  std::vector<IoRequest> reqs;
  IoRequest a;
  a.arrival = 500000;
  a.type = IoType::kWrite;
  a.lpn = 10;
  a.pages = 3;
  reqs.push_back(a);

  std::ostringstream out;
  write_msr_stream(out, reqs);
  std::istringstream in(out.str());
  MsrParseOptions o = opts();
  o.rebase_time = false;
  const auto parsed = parse_msr_stream(in, o);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].arrival, a.arrival);
  EXPECT_EQ(parsed[0].type, a.type);
  EXPECT_EQ(parsed[0].lpn, a.lpn);
  EXPECT_EQ(parsed[0].pages, a.pages);
}

TEST(MsrTraceTest, MissingFileThrows) {
  EXPECT_THROW(parse_msr_file("/nonexistent/trace.csv", opts()),
               std::runtime_error);
}

// Regression: genuine FILETIME stamps (~1.28e17 ticks) used to overflow
// the int64 tick→ns multiplication (undefined behaviour, caught by
// UBSan). Standalone line parsing now saturates instead of wrapping.
TEST(MsrTraceTest, RealFiletimeTimestampSaturatesInsteadOfOverflowing) {
  const auto r = parse_msr_line(
      "128166372003061629,hm,1,Read,8192,4096,432", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->arrival, std::numeric_limits<SimTime>::max());
  EXPECT_GE(r->arrival, 0);
}

// Regression: stream parsing must rebase in the tick domain *before* the
// ns conversion, so real-trace arrival deltas are exact even though the
// absolute stamps are unrepresentable in int64 nanoseconds.
TEST(MsrTraceTest, StreamRebasesRealFiletimeStampsExactly) {
  std::istringstream in(
      "128166372003061629,hm,1,Read,0,4096,0\n"
      "128166372003062629,hm,1,Write,4096,4096,0\n");
  const auto reqs = parse_msr_stream(in, opts());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].arrival, 0);
  EXPECT_EQ(reqs[1].arrival, 100000);  // 1000 ticks * 100 ns
}

// Regression: an (offset + size) pair that wraps the 64-bit byte space
// used to produce garbage LPNs and a wrapped 32-bit page count. Corrupt
// extents are rejected, not reinterpreted.
TEST(MsrTraceTest, OverflowingExtentsRejected) {
  // offset + size wraps uint64.
  EXPECT_FALSE(parse_msr_line("0,h,0,Write,18446744073709551615,4096,0",
                              opts()).has_value());
  // offset + 1 (the zero-size span) wraps uint64.
  EXPECT_FALSE(parse_msr_line("0,h,0,Write,18446744073709551615,0,0",
                              opts()).has_value());
  // Page count does not fit the 32-bit request representation.
  EXPECT_FALSE(parse_msr_line("0,h,0,Write,0,18446744073709551615,0",
                              opts()).has_value());
  // A huge-but-sane offset still parses.
  const auto r =
      parse_msr_line("0,h,0,Write,9223372036854775808,4096,0", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pages, 1u);
  EXPECT_EQ(r->lpn, 9223372036854775808ull / 4096);
}

// Deterministic fuzz: truncated lines, flipped characters, and random
// field soup must never crash the parser or yield a request that violates
// its representation invariants.
TEST(MsrTraceTest, FuzzedLinesNeverCrashAndKeepInvariants) {
  Rng rng(2024);
  const std::string valid = "1000,h,0,Write,8192,4096,0";
  const char alphabet[] = "0123456789,,.-+eEWRrw#x \t";
  constexpr std::size_t kAlpha = sizeof(alphabet) - 1;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string line;
    if (rng.next_bool(0.5)) {
      line = valid.substr(0, rng.next_u64() % (valid.size() + 1));
      for (char& c : line) {
        if (rng.next_bool(0.1)) c = alphabet[rng.next_u64() % kAlpha];
      }
    } else {
      const std::size_t len = rng.next_u64() % 48;
      for (std::size_t i = 0; i < len; ++i) {
        line += alphabet[rng.next_u64() % kAlpha];
      }
    }
    const auto r = parse_msr_line(line, opts());
    if (r.has_value()) {
      EXPECT_GE(r->pages, 1u) << "line: " << line;
      EXPECT_GE(r->arrival, 0) << "line: " << line;
    }
  }
}

// Out-of-order stamps earlier than the base clamp to zero rather than
// wrapping around the unsigned tick subtraction.
TEST(MsrTraceTest, PreBaseTimestampClampsToZero) {
  std::istringstream in(
      "2000,h,0,Read,0,4096,0\n"
      "1000,h,0,Read,0,4096,0\n");
  const auto reqs = parse_msr_stream(in, opts());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].arrival, 0);
  EXPECT_EQ(reqs[1].arrival, 0);
}

// A file cut off mid-record (e.g. an interrupted download) must fail the
// parse, pointing at the file and line — not silently drop the tail.
TEST(MsrTraceTest, TruncatedFileFailsWithFilenameAndLine) {
  const std::string path = ::testing::TempDir() + "/truncated.msr.csv";
  {
    std::ofstream out(path);
    out << "0,h,0,Read,0,4096,0\n"
           "1000,h,0,Write,8192,4096,0\n"
           "2000,h,0,Wri";  // record cut mid-field, no newline
  }
  try {
    parse_msr_file(path, opts());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  }
}

// A complete final record without a trailing newline is normal (many
// tools emit that) and must keep parsing.
TEST(MsrTraceTest, CompleteFinalRecordWithoutNewlineParses) {
  const std::string path = ::testing::TempDir() + "/nonewline.msr.csv";
  {
    std::ofstream out(path);
    out << "0,h,0,Read,0,4096,0\n1000,h,0,Write,8192,4096,0";
  }
  EXPECT_EQ(parse_msr_file(path, opts()).size(), 2u);
}

// String-stream parsing keeps its lenient semantics: embedded test
// literals routinely end mid-"record" without a newline.
TEST(MsrTraceTest, StreamParsingStaysLenientAboutPartialTail) {
  std::istringstream in("0,h,0,Read,0,4096,0\ngarbage-tail");
  EXPECT_EQ(parse_msr_stream(in, opts()).size(), 1u);
}

TEST(MsrTraceTest, StrictModeNamesSourceAndLine) {
  MsrParseOptions strict = opts();
  strict.skip_malformed = false;
  strict.source_name = "hm_0.csv";
  std::istringstream in("0,h,0,Read,0,4096,0\nbogus line\n");
  try {
    parse_msr_stream(in, strict);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hm_0.csv:2"), std::string::npos) << msg;
  }
}

// Comment lines are never "malformed", even in strict mode.
TEST(MsrTraceTest, StrictModeToleratesComments) {
  MsrParseOptions strict = opts();
  strict.skip_malformed = false;
  std::istringstream in("# header comment\n0,h,0,Read,0,4096,0\n");
  EXPECT_EQ(parse_msr_stream(in, strict).size(), 1u);
}

}  // namespace
}  // namespace reqblock
