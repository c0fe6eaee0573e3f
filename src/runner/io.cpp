#include "runner/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace retri::runner {

namespace {

constexpr std::size_t kWriteChunk = 256u << 10;

std::string errno_text(const char* what, int err) {
  return std::string(what) + ": " + std::strerror(err);
}

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    // Close only — never unlink. A CrashPointHit unwinds through here and
    // the whole point is leaving the partial state a SIGKILL would leave.
    if (fd >= 0) ::close(fd);
  }
};

void crash(fault::IoFaultInjector* faults, std::string_view point) {
  if (faults != nullptr) faults->crash_point(point);
}

}  // namespace

util::Result<int, std::string> atomic_write_file(
    const std::string& path, std::string_view contents,
    std::string_view op_key, fault::IoFaultInjector* faults) {
  const std::string tmp = path + ".tmp";

  FdGuard file;
  // The one sanctioned raw store-open in src/runner: everything that
  // follows makes this write atomic.
  file.fd = ::open(  // retri-lint: allow(no-bare-ofstream-store)
      tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (file.fd < 0) return errno_text("open(tmp)", errno);
  crash(faults, "serve.io.tmp_open");

  // Injected ENOSPC models the classic torn store: half the body lands,
  // then the disk is full. The partial tmp file is deliberately left
  // behind — the next opening of the store must delete it.
  const bool enospc = faults != nullptr && faults->inject_enospc(op_key);
  const std::string_view effective =
      enospc ? contents.substr(0, contents.size() / 2) : contents;

  // Two deliberate chunks so the tmp_partial crash point always lands
  // between real write()s, even for one-line bodies.
  const std::size_t half = effective.size() / 2;
  std::uint64_t ordinal = 0;
  std::size_t written = 0;
  while (written < effective.size()) {
    if (faults != nullptr && faults->inject_eintr(op_key, ordinal)) {
      ++ordinal;  // an interrupted write transfers nothing; loop again
      continue;
    }
    std::size_t want = std::min(
        {effective.size() - written, kWriteChunk,
         written < half ? half - written : effective.size() - written});
    if (want == 0) want = effective.size() - written;
    if (faults != nullptr) want = faults->clamp_write(op_key, ordinal, want);
    ++ordinal;
    const ssize_t n =
        ::write(file.fd, effective.data() + written, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_text("write(tmp)", errno);
    }
    written += static_cast<std::size_t>(n);
    if (written == half && written < effective.size()) {
      crash(faults, "serve.io.tmp_partial");
    }
  }
  if (enospc) return std::string("write(tmp): no space left (injected)");
  crash(faults, "serve.io.tmp_written");

  if (::fsync(file.fd) != 0) return errno_text("fsync(tmp)", errno);
  crash(faults, "serve.io.tmp_synced");
  ::close(file.fd);
  file.fd = -1;

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return errno_text("rename(tmp)", errno);
  }
  crash(faults, "serve.io.renamed");

  // Directory fsync makes the rename itself durable. Failure here is not a
  // torn store — the entry is fully written either way — so it degrades to
  // best-effort like the rest of the persist path.
  const auto slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  FdGuard dirfd;
  dirfd.fd = ::open(  // retri-lint: allow(no-bare-ofstream-store)
      dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd.fd >= 0) ::fsync(dirfd.fd);
  return 0;
}

}  // namespace retri::runner
