#include "trace/trace_file.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace reqblock {
namespace {

SpcParseOptions opts() { return SpcParseOptions{}; }

TEST(SpcTraceTest, ParsesWellFormedLine) {
  // ASU 0, LBA 16 (sector 512B => byte 8192), 4096 bytes, write, t=1.5s.
  const auto r = parse_spc_line("0,16,4096,w,1.5", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, IoType::kWrite);
  EXPECT_EQ(r->lpn, 2u);
  EXPECT_EQ(r->pages, 1u);
  EXPECT_EQ(r->arrival, 1'500'000'000);
}

TEST(SpcTraceTest, ReadOpcodeVariants) {
  EXPECT_EQ(parse_spc_line("0,0,512,r,0.0", opts())->type, IoType::kRead);
  EXPECT_EQ(parse_spc_line("0,0,512,R,0.0", opts())->type, IoType::kRead);
  EXPECT_EQ(parse_spc_line("0,0,512,W,0.0", opts())->type, IoType::kWrite);
}

TEST(SpcTraceTest, SectorToPageRounding) {
  // LBA 7 => byte 3584; 1024 bytes end at 4608 => pages 0..1.
  const auto r = parse_spc_line("0,7,1024,w,0", opts());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lpn, 0u);
  EXPECT_EQ(r->pages, 2u);
}

TEST(SpcTraceTest, AsuOffsetsDisjointAddressSpaces) {
  const auto a = parse_spc_line("0,0,4096,w,0", opts());
  const auto b = parse_spc_line("1,0,4096,w,0", opts());
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->lpn, b->lpn);
  EXPECT_EQ(b->lpn, opts().asu_stride_pages);
}

TEST(SpcTraceTest, AsuFilterKeepsOnlyMatch) {
  SpcParseOptions o = opts();
  o.asu_filter = 1;
  EXPECT_FALSE(parse_spc_line("0,0,4096,w,0", o).has_value());
  const auto r = parse_spc_line("1,8,4096,w,0", o);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lpn, 1u);  // no ASU offset when filtered
}

TEST(SpcTraceTest, MalformedRejected) {
  EXPECT_FALSE(parse_spc_line("", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("# comment", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("0,0,4096,x,0", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("0,0,4096,w", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("a,0,4096,w,0", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("0,0,4096,w,-1.0", opts()).has_value());
}

TEST(SpcTraceTest, StreamParsingRebasesAndNumbers) {
  std::istringstream in(
      "0,0,4096,w,10.0\n"
      "0,8,4096,r,10.5\n");
  const auto reqs = parse_spc_stream(in, opts());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].arrival, 0);
  EXPECT_EQ(reqs[1].arrival, 500'000'000);
  EXPECT_EQ(reqs[0].id, 0u);
  EXPECT_EQ(reqs[1].id, 1u);
}

// Out-of-order stamps earlier than the base clamp to zero rather than
// going negative, as in the MSR format.
TEST(SpcTraceTest, PreBaseTimestampClampsToZero) {
  std::istringstream in(
      "0,100,4096,w,5.0\n"
      "0,200,4096,w,2.0\n"
      "0,300,4096,r,6.0\n");
  const auto reqs = parse_spc_stream(in, opts());
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].arrival, 0);
  EXPECT_EQ(reqs[1].arrival, 0);
  EXPECT_EQ(reqs[2].arrival, 1'000'000'000);
}

TEST(SpcTraceTest, StrictModeThrows) {
  SpcParseOptions o = opts();
  o.skip_malformed = false;
  std::istringstream in("garbage,line\n");
  EXPECT_THROW(parse_spc_stream(in, o), std::runtime_error);
}

TEST(SpcTraceTest, MaxRequestsCap) {
  std::istringstream in(
      "0,0,512,w,0\n0,8,512,w,1\n0,16,512,w,2\n");
  SpcParseOptions o = opts();
  o.max_requests = 2;
  EXPECT_EQ(parse_spc_stream(in, o).size(), 2u);
}

// Regression: lba * sector_size (and byte_offset + size) used to wrap the
// 64-bit byte space, producing garbage LPNs; and strtod happily parses
// "inf"/"nan"/1e300 timestamps, which made llround undefined behaviour.
TEST(SpcTraceTest, OverflowingFieldsRejected) {
  // lba * 512 wraps uint64.
  EXPECT_FALSE(
      parse_spc_line("0,18446744073709551615,4096,w,0", opts()).has_value());
  // byte_offset + size wraps uint64.
  EXPECT_FALSE(parse_spc_line("0,36028797018963967,18446744073709551615,w,0",
                              opts()).has_value());
  // Page count does not fit the 32-bit request representation.
  EXPECT_FALSE(
      parse_spc_line("0,0,18446744073709551615,w,0", opts()).has_value());
  // Timestamps the ns clock cannot represent.
  EXPECT_FALSE(parse_spc_line("0,0,4096,w,inf", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("0,0,4096,w,nan", opts()).has_value());
  EXPECT_FALSE(parse_spc_line("0,0,4096,w,1e300", opts()).has_value());
  // A large-but-sane line still parses.
  EXPECT_TRUE(parse_spc_line("0,1000000000,4096,w,1000000.5",
                             opts()).has_value());
}

// Deterministic fuzz: truncated lines, flipped characters, and random
// field soup must never crash the parser or yield a request that violates
// its representation invariants.
TEST(SpcTraceTest, FuzzedLinesNeverCrashAndKeepInvariants) {
  Rng rng(4096);
  const std::string valid = "0,16,4096,w,1.5";
  const char alphabet[] = "0123456789,,.-+eEWRrwinfa#x \t";
  constexpr std::size_t kAlpha = sizeof(alphabet) - 1;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string line;
    if (rng.next_bool(0.5)) {
      line = valid.substr(0, rng.next_u64() % (valid.size() + 1));
      for (char& c : line) {
        if (rng.next_bool(0.15)) c = alphabet[rng.next_u64() % kAlpha];
      }
    } else {
      const std::size_t len = rng.next_u64() % 40;
      for (std::size_t i = 0; i < len; ++i) {
        line += alphabet[rng.next_u64() % kAlpha];
      }
    }
    const auto r = parse_spc_line(line, opts());
    if (r.has_value()) {
      EXPECT_GE(r->pages, 1u) << "line: " << line;
      EXPECT_GE(r->arrival, 0) << "line: " << line;
    }
  }
}

TEST(SpcTraceTest, MissingFileThrows) {
  EXPECT_THROW(parse_spc_file("/no/such/file.spc", opts()),
               std::runtime_error);
}

TEST(SpcTraceTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mini.spc";
  {
    std::ofstream out(path);
    out << "0,0,4096,w,0.0\n0,8,8192,r,0.001\n";
  }
  const auto reqs = parse_spc_file(path, opts());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[1].pages, 2u);
}

// A file cut off mid-record must fail the parse, pointing at the file and
// line — not silently drop the tail.
TEST(SpcTraceTest, TruncatedFileFailsWithFilenameAndLine) {
  const std::string path = ::testing::TempDir() + "/truncated.spc";
  {
    std::ofstream out(path);
    out << "0,0,4096,w,0.0\n0,8,40";  // record cut mid-field, no newline
  }
  try {
    parse_spc_file(path, opts());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  }
}

// A complete final record without a trailing newline keeps parsing, and
// stream parsing keeps its lenient semantics for partial tails.
TEST(SpcTraceTest, CompleteFinalRecordWithoutNewlineParses) {
  const std::string path = ::testing::TempDir() + "/nonewline.spc";
  {
    std::ofstream out(path);
    out << "0,0,4096,w,0.0\n0,8,8192,r,0.001";
  }
  EXPECT_EQ(parse_spc_file(path, opts()).size(), 2u);

  std::istringstream in("0,0,4096,w,0.0\n0,8,40");
  EXPECT_EQ(parse_spc_stream(in, opts()).size(), 1u);
}

TEST(SpcTraceTest, StrictModeNamesSourceAndLine) {
  SpcParseOptions strict = opts();
  strict.skip_malformed = false;
  strict.source_name = "fin1.spc";
  std::istringstream in("0,0,4096,w,0.0\nnot a record\n");
  try {
    parse_spc_stream(in, strict);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fin1.spc:2"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace reqblock
