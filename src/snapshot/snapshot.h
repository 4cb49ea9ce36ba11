// Versioned, checksummed binary snapshot format (checkpoint/restore).
//
// A snapshot is a flat byte buffer produced by a SnapshotWriter and
// consumed by a SnapshotReader. The encoding is deliberately boring:
// little-endian fixed-width integers, IEEE-754 doubles by bit pattern,
// length-prefixed strings, and short named section tags that let the
// reader fail loudly ("expected section 'ftl', found 'cache'") instead of
// silently misinterpreting bytes when writer and reader drift apart.
//
// Both ends run at memory speed on multi-megabyte payloads:
//   * the writer is an inline cursor over one std::string. A caller that
//     knows how many bytes are coming reserves them (SimulationSession
//     reserves its layers' bound, from the entry counts of their tables),
//     so the buffer is not reallocated while they are written, and take()
//     moves the string out;
//   * the reader loads each fixed-width value inline behind one bounds
//     check, and count() bounds every element count before it allocates;
//   * values are stored by copying their bytes, so the build asserts a
//     little-endian host.
//
// On disk a snapshot is wrapped in a container: magic + format version +
// identity hashes (config fingerprint, trace identity) + payload length +
// FNV-1a-64 checksum chained over the header prefix and the payload (v6:
// a flipped bit in any header field is a checksum mismatch, not a quietly
// corrupted hash). decode_snapshot() verifies all of it before a single
// payload byte is interpreted, and restore paths compare the identity
// hashes against the *current* run configuration — a checkpoint from a
// different policy, geometry, fault plan, or trace is refused, never
// "best-effort" loaded.
//
// Determinism contract: serializing the same logical state always produces
// the same bytes, so snapshot bytes themselves can be compared in tests.
// LPN-indexed tables (util/lpn_table.h: the FTL's L2P and version tables,
// the cache's write oracle) iterate in ascending LPN order and are written
// as they iterate. The cache's page table is written in the order of its
// presence map, an LPN table, so it is in ascending LPN order without a
// sort. Containers with nondeterministic iteration order (the policies'
// node maps) are written in list order or sorted key order.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace reqblock {

class LogHistogram;
class CountHistogram;
class RunningStat;
class Rng;

static_assert(std::endian::native == std::endian::little,
              "snapshot values are stored by copying their bytes, which "
              "gives the little-endian format only on a little-endian host");

/// Every malformed-snapshot condition (truncation, checksum mismatch,
/// version/identity mismatch, section-tag drift) throws this.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a 64-bit over a byte range. Used for the container checksum and as
/// the building block for identity fingerprints.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Order-sensitive hash accumulator for configuration/trace identity.
/// Feed every field that defines "the same run"; the final value goes into
/// the snapshot header and is compared on restore.
class Fingerprint {
 public:
  Fingerprint& add(std::uint64_t v);
  Fingerprint& add_i64(std::int64_t v) {
    return add(static_cast<std::uint64_t>(v));
  }
  Fingerprint& add_double(double v);
  Fingerprint& add_bool(bool v) { return add(v ? 1 : 0); }
  Fingerprint& add_string(std::string_view s);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

class SnapshotWriter {
 public:
  /// Makes room for `bytes` more payload bytes in one allocation, so
  /// writing them never reallocates (and copies) the buffer. Only
  /// capacity: bytes not yet written are not touched, so an over-estimate
  /// costs address space, not memory.
  void reserve(std::size_t bytes);

  /// Named section marker; the reader must consume the same tag at the
  /// same position. Cheap structure validation for long payloads.
  void tag(std::string_view name);
  /// The bytes tag(name) writes: sentinel, length and name.
  static constexpr std::size_t tag_bytes(std::string_view name) {
    return 1 + 4 + name.size();
  }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_u32(const std::vector<std::uint32_t>& v);

  /// The bytes written so far.
  const std::string& buffer() const {
    buf_.resize(pos_);
    return buf_;
  }
  std::string take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    if (buf_.size() - pos_ < sizeof(T)) extend(sizeof(T));
    std::memcpy(buf_.data() + pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }
  void raw(const void* data, std::size_t size);
  /// Makes at least `bytes` bytes writable at the cursor.
  void extend(std::size_t bytes);

  // [0, pos_) is written; [pos_, size()) is room made writable ahead of
  // the cursor, trimmed off whenever the bytes are handed out.
  mutable std::string buf_;
  std::size_t pos_ = 0;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  /// Consumes a section tag; throws SnapshotError naming the expected and
  /// found tags on mismatch.
  void tag(std::string_view name);

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int64_t i64() { return take<std::int64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool b() { return u8() != 0; }
  std::string str();

  std::vector<std::uint64_t> vec_u64();
  std::vector<std::uint32_t> vec_u32();

  bool at_end() const { return pos_ == data_.size(); }
  /// Payload bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Reads an element count and bounds it against the remaining payload
  /// (each element needs at least `min_item_bytes`), so a corrupt count
  /// raises SnapshotError instead of driving a huge allocation.
  std::uint64_t count(std::size_t min_item_bytes);
  /// Throws unless every payload byte was consumed — catches writer/reader
  /// drift that happens to stay in bounds.
  void expect_end() const;

 private:
  template <typename T>
  T take() {
    if (data_.size() - pos_ < sizeof(T)) truncated(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  const char* need(std::size_t size);
  [[noreturn]] void truncated(std::size_t size) const;
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// On-disk container.

// Version 2: EventKind gained the overload kinds (queue_enqueue,
// queue_timeout, bg_flush, throttle) before kPageRead, renumbering the
// flash kinds, and sessions/results carry admission-queue + SLO state.
// Version 3: EventKind gained kAttrSpan after kBlockRetire, and
// sessions/results carry the latency-attribution section.
// v4: multi-queue sessions — per-tenant blocks (pre-pulled head, trace
// cursor, admission queue, accounting), arbiter state, and the
// arbitration clock replace the single trace/queue layout.
/// v5: device aging — per-block wear state (read counters, data-age
/// stamps) in the flash array, aging counters in the fault metrics,
/// degraded-mode state in the FTL, and EventKind gained the aging kinds
/// after kAttrSpan.
/// v6: data integrity — sparse per-page corrected-error counters and
/// stripe-parity presence in the flash array, the patrol-scrub cursor in
/// the FTL, integrity counters in the fault metrics, and EventKind gained
/// the integrity kinds after kDegradedModeExit.
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;

/// Identity carried alongside the payload and validated before restore.
struct SnapshotHeader {
  std::uint32_t format_version = kSnapshotFormatVersion;
  /// What the payload is ("run-checkpoint", "case-result", ...). Restore
  /// paths refuse a payload of the wrong kind.
  std::string kind;
  /// Fingerprint of the full run configuration (SsdConfig, cache options,
  /// policy config, fault plan, warmup/caps).
  std::uint64_t config_hash = 0;
  /// TraceSource::identity_hash() of the input trace.
  std::uint64_t trace_hash = 0;
  /// Progress marker (measured requests served), informational.
  std::uint64_t sequence = 0;
};

/// Wraps payload in the container (magic, version, header, checksum).
std::string encode_snapshot(const SnapshotHeader& header,
                            std::string_view payload);

/// Validates magic, format version, and checksum; fills `header` and
/// returns the payload. Throws SnapshotError on any mismatch.
std::string decode_snapshot(std::string_view file_bytes,
                            SnapshotHeader& header);

/// Writes encode_snapshot() output crash-consistently (temp file + fsync +
/// atomic rename), the header and the payload as two pieces with no joined
/// copy. Throws std::runtime_error on I/O failure.
void save_snapshot_file(const std::string& path, const SnapshotHeader& header,
                        std::string_view payload);

/// Reads and decodes a snapshot file. Throws SnapshotError on malformed
/// content, std::runtime_error when the file cannot be read.
std::string load_snapshot_file(const std::string& path,
                               SnapshotHeader& header);

/// Refuses (throws SnapshotError) unless kind/config/trace identity of a
/// decoded header match what the resuming run expects. `what` names the
/// snapshot in the error message (usually the file path).
void require_snapshot_identity(const SnapshotHeader& header,
                               std::string_view kind,
                               std::uint64_t config_hash,
                               std::uint64_t trace_hash,
                               std::string_view what);

// ---------------------------------------------------------------------------
// Serializers for util value types (via their checkpoint accessors).

void serialize(SnapshotWriter& w, const LogHistogram& h);
void deserialize(SnapshotReader& r, LogHistogram& h);
void serialize(SnapshotWriter& w, const CountHistogram& h);
void deserialize(SnapshotReader& r, CountHistogram& h);
std::size_t snapshot_bytes(const CountHistogram& h);
void serialize(SnapshotWriter& w, const RunningStat& s);
void deserialize(SnapshotReader& r, RunningStat& s);
std::size_t snapshot_bytes(const RunningStat& s);
void serialize(SnapshotWriter& w, const Rng& rng);
void deserialize(SnapshotReader& r, Rng& rng);

}  // namespace reqblock
