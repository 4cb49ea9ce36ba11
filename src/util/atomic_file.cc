#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace reqblock {

namespace {

[[noreturn]] void fail(const std::string& path, const char* step, int err) {
  std::ostringstream os;
  os << "atomic write of '" << path << "' failed (" << step
     << "): " << std::generic_category().message(err);
  throw std::runtime_error(os.str());
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  // Directory fsync is best-effort hardening: some filesystems refuse it,
  // and the rename has already happened.
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view contents) {
  write_file_atomic(path, std::span<const std::string_view>(&contents, 1));
}

void write_file_atomic(const std::string& path,
                       std::span<const std::string_view> pieces) {
  // Unique within the process even when experiment threads write into the
  // same directory concurrently.
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = tmp_name.str();

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(path, "create temp file", errno);

  for (const std::string_view piece : pieces) {
    const char* data = piece.data();
    std::size_t left = piece.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail(path, "write", err);
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(path, "fsync", err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(path, "close", err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(path, "rename", err);
  }
  fsync_dir(parent_dir(path));
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& fill) {
  std::ostringstream buf;
  fill(buf);
  if (!buf) {
    throw std::runtime_error("atomic write of '" + path +
                             "' failed: writer reported a stream error");
  }
  write_file_atomic(path, buf.view());
}

}  // namespace reqblock
