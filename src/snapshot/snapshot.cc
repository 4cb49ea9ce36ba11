#include "snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reqblock {

namespace {

// 8-byte magic: identifies the container and its byte order in one read.
constexpr char kMagic[8] = {'R', 'Q', 'B', 'S', 'N', 'A', 'P', '1'};

// The container header's and Fingerprint's integers, little-endian like
// the payload's (the header asserts a little-endian host).
template <typename T>
T load_le(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_le(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// How far ahead of its cursor a writer makes room at a time. Making room
// zero-fills it, so reserved capacity is touched only this far past the
// last byte written.
constexpr std::size_t kRoomStep = std::size_t{64} << 10;

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Fingerprint& Fingerprint::add(std::uint64_t v) {
  hash_ = fnv1a64(&v, sizeof(v), hash_);
  return *this;
}

Fingerprint& Fingerprint::add_double(double v) {
  return add(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::add_string(std::string_view s) {
  add(s.size());
  hash_ = fnv1a64(s.data(), s.size(), hash_);
  return *this;
}

// --- SnapshotWriter --------------------------------------------------------

void SnapshotWriter::reserve(std::size_t bytes) {
  if (buf_.capacity() - pos_ < bytes) buf_.reserve(pos_ + bytes);
}

void SnapshotWriter::extend(std::size_t bytes) {
  // Past the capacity the buffer doubles; within it, the room grows a
  // step at a time, so untouched capacity never becomes resident.
  if (buf_.capacity() - pos_ < bytes) {
    buf_.reserve(std::max(pos_ + bytes, 2 * buf_.capacity()));
  }
  buf_.resize(std::min(buf_.capacity(), pos_ + std::max(bytes, kRoomStep)));
}

void SnapshotWriter::raw(const void* data, std::size_t size) {
  if (size == 0) return;  // `data` may be null
  if (buf_.size() - pos_ < size) extend(size);
  std::memcpy(buf_.data() + pos_, data, size);
  pos_ += size;
}

void SnapshotWriter::tag(std::string_view name) {
  // Tag = sentinel byte + length-prefixed name. The sentinel makes a tag
  // visually greppable in hex dumps and very unlikely to match a value the
  // reader desynchronized onto.
  u8(0xA5);
  str(name);
}

void SnapshotWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void SnapshotWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void SnapshotWriter::vec_u32(const std::vector<std::uint32_t>& v) {
  u64(v.size());
  raw(v.data(), v.size() * sizeof(std::uint32_t));
}

// --- SnapshotReader --------------------------------------------------------

void SnapshotReader::truncated(std::size_t size) const {
  std::ostringstream os;
  os << "snapshot payload truncated: need " << size << " bytes at offset "
     << pos_ << ", have " << (data_.size() - pos_);
  throw SnapshotError(os.str());
}

const char* SnapshotReader::need(std::size_t size) {
  if (data_.size() - pos_ < size) truncated(size);
  const char* p = data_.data() + pos_;
  pos_ += size;
  return p;
}

void SnapshotReader::tag(std::string_view name) {
  const std::size_t at = pos_;
  if (u8() != 0xA5) {
    std::ostringstream os;
    os << "snapshot section marker missing at offset " << at << " (expected '"
       << name << "'): writer/reader format drift";
    throw SnapshotError(os.str());
  }
  const std::string found = str();
  if (found != name) {
    std::ostringstream os;
    os << "snapshot section mismatch at offset " << at << ": expected '"
       << name << "', found '" << found << "'";
    throw SnapshotError(os.str());
  }
}

std::string SnapshotReader::str() {
  const std::uint32_t size = u32();
  const char* p = need(size);
  return std::string(p, size);
}

std::uint64_t SnapshotReader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = u64();
  if (min_item_bytes == 0) min_item_bytes = 1;
  if (n > remaining() / min_item_bytes) {
    throw SnapshotError("snapshot element count exceeds remaining payload");
  }
  return n;
}

std::vector<std::uint64_t> SnapshotReader::vec_u64() {
  const std::uint64_t size = u64();
  // Bound before allocating: a corrupt length must not trigger a bad_alloc.
  if (size > remaining() / 8) {
    throw SnapshotError("snapshot vector length exceeds remaining payload");
  }
  std::vector<std::uint64_t> v(size);
  if (size > 0) std::memcpy(v.data(), need(size * 8), size * 8);
  return v;
}

std::vector<std::uint32_t> SnapshotReader::vec_u32() {
  const std::uint64_t size = u64();
  if (size > remaining() / 4) {
    throw SnapshotError("snapshot vector length exceeds remaining payload");
  }
  std::vector<std::uint32_t> v(size);
  if (size > 0) std::memcpy(v.data(), need(size * 4), size * 4);
  return v;
}

void SnapshotReader::expect_end() const {
  if (pos_ != data_.size()) {
    std::ostringstream os;
    os << "snapshot payload has " << (data_.size() - pos_)
       << " unread trailing bytes: writer/reader format drift";
    throw SnapshotError(os.str());
  }
}

// --- Container -------------------------------------------------------------

std::string encode_snapshot(const SnapshotHeader& header,
                            std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 96);
  out.append(kMagic, sizeof(kMagic));
  append_le<std::uint32_t>(out, header.format_version);
  append_le(out, static_cast<std::uint32_t>(header.kind.size()));
  out.append(header.kind);
  append_le(out, header.config_hash);
  append_le(out, header.trace_hash);
  append_le(out, header.sequence);
  append_le<std::uint64_t>(out, payload.size());
  // The checksum chains over the header prefix and then the payload, so
  // a bit flip anywhere in the file — kind string, identity hashes,
  // sequence, length, or data — is refused at decode, not discovered
  // later (or never) by whatever consumes the fields.
  append_le<std::uint64_t>(out, fnv1a64(payload.data(), payload.size(),
                                        fnv1a64(out.data(), out.size())));
  out.append(payload);
  return out;
}

std::string decode_snapshot(std::string_view file_bytes,
                            SnapshotHeader& header) {
  std::size_t pos = 0;
  const auto need = [&](std::size_t n, const char* what) {
    if (file_bytes.size() - pos < n) {
      std::ostringstream os;
      os << "snapshot file truncated reading " << what << " (offset " << pos
         << ", need " << n << " bytes, have " << (file_bytes.size() - pos)
         << ")";
      throw SnapshotError(os.str());
    }
  };
  need(sizeof(kMagic), "magic");
  if (std::memcmp(file_bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("not a snapshot file (bad magic)");
  }
  pos += sizeof(kMagic);

  need(4, "format version");
  header.format_version = load_le<std::uint32_t>(file_bytes.data() + pos);
  pos += 4;
  if (header.format_version != kSnapshotFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot format version " << header.format_version
       << " (this build reads version " << kSnapshotFormatVersion << ")";
    throw SnapshotError(os.str());
  }

  need(4, "kind length");
  const auto kind_size = load_le<std::uint32_t>(file_bytes.data() + pos);
  pos += 4;
  need(kind_size, "kind");
  header.kind.assign(file_bytes.data() + pos, kind_size);
  pos += kind_size;

  need(8 * 5, "header fields");
  const auto next_u64 = [&] {
    const auto v = load_le<std::uint64_t>(file_bytes.data() + pos);
    pos += 8;
    return v;
  };
  header.config_hash = next_u64();
  header.trace_hash = next_u64();
  header.sequence = next_u64();
  const std::uint64_t payload_size = next_u64();
  const std::uint64_t checksum = next_u64();

  if (file_bytes.size() - pos != payload_size) {
    std::ostringstream os;
    os << "snapshot payload size mismatch: header says " << payload_size
       << " bytes, file has " << (file_bytes.size() - pos);
    throw SnapshotError(os.str());
  }
  // pos - 8 = everything before the stored checksum: the chained hash
  // covers the full header prefix plus the payload (see encode_snapshot).
  const std::uint64_t actual =
      fnv1a64(file_bytes.data() + pos, payload_size,
              fnv1a64(file_bytes.data(), pos - 8));
  if (actual != checksum) {
    std::ostringstream os;
    os << "snapshot checksum mismatch: stored " << std::hex << checksum
       << ", computed " << actual << " — file is corrupt";
    throw SnapshotError(os.str());
  }
  return std::string(file_bytes.substr(pos));
}

void save_snapshot_file(const std::string& path, const SnapshotHeader& header,
                        std::string_view payload) {
  write_file_atomic(path, encode_snapshot(header, payload));
}

std::string load_snapshot_file(const std::string& path,
                               SnapshotHeader& header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open snapshot file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("I/O error reading snapshot file: " + path);
  }
  try {
    return decode_snapshot(buf.view(), header);
  } catch (const SnapshotError& e) {
    throw SnapshotError(path + ": " + e.what());
  }
}

void require_snapshot_identity(const SnapshotHeader& header,
                               std::string_view kind,
                               std::uint64_t config_hash,
                               std::uint64_t trace_hash,
                               std::string_view what) {
  std::ostringstream os;
  os << std::hex;
  if (header.kind != kind) {
    os << what << ": snapshot kind mismatch: expected '" << kind
       << "', found '" << header.kind << "'";
    throw SnapshotError(os.str());
  }
  if (header.config_hash != config_hash) {
    os << what << ": snapshot was taken under a different configuration "
       << "(config fingerprint " << header.config_hash << ", this run is "
       << config_hash << "); refusing to resume";
    throw SnapshotError(os.str());
  }
  if (header.trace_hash != trace_hash) {
    os << what << ": snapshot was taken against a different trace "
       << "(trace identity " << header.trace_hash << ", this run is "
       << trace_hash << "); refusing to resume";
    throw SnapshotError(os.str());
  }
}

// --- util value-type serializers ------------------------------------------

void serialize(SnapshotWriter& w, const LogHistogram& h) {
  w.vec_u64(h.raw_buckets());
  w.u64(h.count());
  w.f64(h.raw_sum());
  w.i64(h.raw_min());
  w.i64(h.raw_max());
}

void deserialize(SnapshotReader& r, LogHistogram& h) {
  auto buckets = r.vec_u64();
  const auto count = r.u64();
  const auto sum = r.f64();
  const auto min = r.i64();
  const auto max = r.i64();
  h.restore(std::move(buckets), count, sum, min, max);
}

void serialize(SnapshotWriter& w, const CountHistogram& h) {
  w.vec_u64(h.raw_counts());
  w.u64(h.count());
  w.f64(h.raw_sum());
}

void deserialize(SnapshotReader& r, CountHistogram& h) {
  auto counts = r.vec_u64();
  const auto count = r.u64();
  const auto sum = r.f64();
  h.restore(std::move(counts), count, sum);
}

std::size_t snapshot_bytes(const CountHistogram& h) {
  return 8 + 8 * h.raw_counts().size() + 8 + 8;
}

void serialize(SnapshotWriter& w, const RunningStat& s) {
  w.u64(s.count());
  w.f64(s.raw_mean());
  w.f64(s.raw_m2());
}

void deserialize(SnapshotReader& r, RunningStat& s) {
  const auto n = r.u64();
  const auto mean = r.f64();
  const auto m2 = r.f64();
  s.restore(n, mean, m2);
}

std::size_t snapshot_bytes(const RunningStat&) { return 3 * 8; }

void serialize(SnapshotWriter& w, const Rng& rng) {
  const auto s = rng.state();
  for (const auto word : s) w.u64(word);
}

void deserialize(SnapshotReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.u64();
  rng.set_state(s);
}

}  // namespace reqblock
