#include "store/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/crc32.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

namespace sc::store {
namespace {

constexpr char kFileMagic[8] = {'S', 'C', 'L', 'O', 'G', '0', '1', '\n'};
constexpr char kTrailerMagic[8] = {'S', 'C', 'I', 'D', 'X', '0', '1', '\n'};
constexpr std::uint64_t kHeaderSize = 8;
constexpr std::uint64_t kFrameSize = 8;  // u32 len + u32 crc
constexpr std::uint64_t kTrailerSize = 16;
/// Upper bound on one record; a corrupted length prefix beyond this is
/// treated as a torn tail instead of a gigabyte allocation attempt.
constexpr std::uint32_t kMaxRecordLen = 1u << 30;

bool set_why(std::string* why, std::string msg) {
  if (why) *why = std::move(msg);
  return false;
}

bool pread_all(int fd, std::uint64_t offset, std::uint8_t* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd, out + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // short file
    done += static_cast<std::size_t>(got);
  }
  return true;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// Reads + verifies the record at `offset` in a file of logical size `end`.
/// On success fills `payload` and sets `next` to the following offset.
/// `rot`, when firing, flips one payload bit BEFORE the checksum runs —
/// modelling media bit-rot that the CRC frame must catch, never pass through.
bool read_record(int fd, std::uint64_t offset, std::uint64_t end,
                 util::Bytes& payload, std::uint64_t& next,
                 const fault::Fired* rot = nullptr) {
  if (offset + kFrameSize > end) return false;
  std::uint8_t frame[kFrameSize];
  if (!pread_all(fd, offset, frame, kFrameSize)) return false;
  const std::uint32_t len = load_u32(frame);
  const std::uint32_t want_crc = load_u32(frame + 4);
  if (len > kMaxRecordLen || offset + kFrameSize + len > end) return false;
  payload.resize(len);
  if (len > 0 && !pread_all(fd, offset + kFrameSize, payload.data(), len))
    return false;
  if (rot && rot->kind == fault::FaultKind::kBitRot && len > 0) {
    const std::uint64_t bit = rot->arg % (static_cast<std::uint64_t>(len) * 8);
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  if (crc32(payload) != want_crc) return false;
  next = offset + kFrameSize + len;
  return true;
}

}  // namespace

std::optional<RecordLog::OpenResult> RecordLog::open(const std::string& path,
                                                     bool fsync_writes,
                                                     std::string* why,
                                                     const std::string& scope) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_why(why, "open " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    set_why(why, "fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return std::nullopt;
  }
  std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  OpenResult result;
  if (size == 0) {
    // Fresh file: stamp the header. The header is synced with the first
    // record batch; a crash before that leaves an empty-or-header-only file,
    // which reopens as fresh again.
    std::uint8_t magic[kHeaderSize];
    std::memcpy(magic, kFileMagic, kHeaderSize);
    std::size_t done = 0;
    while (done < kHeaderSize) {
      const ssize_t put = ::pwrite(fd, magic + done, kHeaderSize - done,
                                   static_cast<off_t>(done));
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) {
        set_why(why, "write header " + path + ": " + std::strerror(errno));
        ::close(fd);
        return std::nullopt;
      }
      done += static_cast<std::size_t>(put);
    }
    result.created = true;
    result.log.reset(
        new RecordLog(path, fd, fsync_writes, kHeaderSize, false, scope));
    return result;
  }

  if (size < kHeaderSize) {
    // Torn header write: the file never held data. Restart it.
    if (::ftruncate(fd, 0) != 0) {
      set_why(why, "truncate " + path + ": " + std::strerror(errno));
      ::close(fd);
      return std::nullopt;
    }
    ::close(fd);
    return open(path, fsync_writes, why, scope);
  }

  std::uint8_t magic[kHeaderSize];
  if (!pread_all(fd, 0, magic, kHeaderSize) ||
      std::memcmp(magic, kFileMagic, kHeaderSize) != 0) {
    set_why(why, path + ": not a sc::store record log (bad magic)");
    ::close(fd);
    return std::nullopt;
  }

  // Clean-close fast path: valid trailer -> load footer, truncate it away.
  if (size >= kHeaderSize + kTrailerSize) {
    std::uint8_t trailer[kTrailerSize];
    if (pread_all(fd, size - kTrailerSize, trailer, kTrailerSize) &&
        std::memcmp(trailer + 8, kTrailerMagic, 8) == 0) {
      const std::uint64_t index_offset = load_u64(trailer);
      util::Bytes footer;
      std::uint64_t next = 0;
      if (index_offset >= kHeaderSize && index_offset < size - kTrailerSize &&
          read_record(fd, index_offset, size - kTrailerSize, footer, next) &&
          next == size - kTrailerSize) {
        if (::ftruncate(fd, static_cast<off_t>(index_offset)) != 0) {
          set_why(why, "truncate footer " + path + ": " + std::strerror(errno));
          ::close(fd);
          return std::nullopt;
        }
        result.footer = std::move(footer);
        result.had_footer = true;
        result.log.reset(
            new RecordLog(path, fd, fsync_writes, index_offset, false, scope));
        return result;
      }
      // Trailer bytes that do not check out fall through to the tail scan —
      // they are just payload bytes of a torn final record.
    }
  }

  // Crash path: scan forward, stop at the first record that does not verify,
  // truncate the tail.
  std::uint64_t offset = kHeaderSize;
  util::Bytes payload;
  std::uint64_t next = 0;
  while (offset < size && read_record(fd, offset, size, payload, next))
    offset = next;
  if (offset < size) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      set_why(why, "truncate torn tail " + path + ": " + std::strerror(errno));
      ::close(fd);
      return std::nullopt;
    }
    result.torn_tail_truncated = true;
    result.truncated_bytes = size - offset;
  }
  result.log.reset(new RecordLog(path, fd, fsync_writes, offset, false, scope));
  return result;
}

std::optional<util::Bytes> RecordLog::peek_first(const std::string& path,
                                                 std::size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<util::Bytes> out;
  struct stat st{};
  std::uint8_t head[kHeaderSize + kFrameSize];
  if (::fstat(fd, &st) == 0 && pread_all(fd, 0, head, sizeof head) &&
      std::memcmp(head, kFileMagic, kHeaderSize) == 0) {
    const std::uint32_t len = load_u32(head + kHeaderSize);
    util::Bytes bytes(max_bytes);
    if (len >= max_bytes && len <= kMaxRecordLen &&
        kHeaderSize + kFrameSize + len <= static_cast<std::uint64_t>(st.st_size) &&
        pread_all(fd, kHeaderSize + kFrameSize, bytes.data(), max_bytes))
      out = std::move(bytes);
  }
  ::close(fd);
  return out;
}

std::optional<util::Bytes> RecordLog::read_first(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<util::Bytes> out;
  struct stat st{};
  std::uint8_t magic[kHeaderSize];
  util::Bytes payload;
  std::uint64_t next = 0;
  if (::fstat(fd, &st) == 0 && pread_all(fd, 0, magic, kHeaderSize) &&
      std::memcmp(magic, kFileMagic, kHeaderSize) == 0 &&
      read_record(fd, kHeaderSize, static_cast<std::uint64_t>(st.st_size), payload, next))
    out = std::move(payload);
  ::close(fd);
  return out;
}

std::optional<RecordLog::OpenResult> RecordLog::open_read_only(
    const std::string& path, std::string* why) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_why(why, "open " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    set_why(why, "fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return std::nullopt;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  OpenResult result;
  if (size < kHeaderSize) {
    // Empty or torn-header file: no records to show.
    result.log.reset(new RecordLog(path, fd, false, size, /*read_only=*/true));
    return result;
  }
  std::uint8_t magic[kHeaderSize];
  if (!pread_all(fd, 0, magic, kHeaderSize) ||
      std::memcmp(magic, kFileMagic, kHeaderSize) != 0) {
    set_why(why, path + ": not a sc::store record log (bad magic)");
    ::close(fd);
    return std::nullopt;
  }

  // Clean-close footer: surface the index payload and stop reads before it,
  // exactly as the writable path does — but leave the bytes on disk.
  if (size >= kHeaderSize + kTrailerSize) {
    std::uint8_t trailer[kTrailerSize];
    if (pread_all(fd, size - kTrailerSize, trailer, kTrailerSize) &&
        std::memcmp(trailer + 8, kTrailerMagic, 8) == 0) {
      const std::uint64_t index_offset = load_u64(trailer);
      util::Bytes footer;
      std::uint64_t next = 0;
      if (index_offset >= kHeaderSize && index_offset < size - kTrailerSize &&
          read_record(fd, index_offset, size - kTrailerSize, footer, next) &&
          next == size - kTrailerSize) {
        result.footer = std::move(footer);
        result.had_footer = true;
        result.log.reset(
            new RecordLog(path, fd, false, index_offset, /*read_only=*/true));
        return result;
      }
    }
  }

  // Torn tail: report it (flag + dropped byte count) without repairing —
  // reads stop at the last whole record.
  std::uint64_t offset = kHeaderSize;
  util::Bytes payload;
  std::uint64_t next = 0;
  while (offset < size && read_record(fd, offset, size, payload, next))
    offset = next;
  if (offset < size) {
    result.torn_tail_truncated = true;
    result.truncated_bytes = size - offset;
  }
  result.log.reset(new RecordLog(path, fd, false, offset, /*read_only=*/true));
  return result;
}

RecordLog::~RecordLog() {
  // A failing close here can no longer be surfaced to anyone; the paths that
  // care about close errors (close_with_footer) check explicitly.
  if (fd_ >= 0) ::close(fd_);
}

bool RecordLog::write_all(std::uint64_t offset, util::ByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t put = ::pwrite(fd_, data.data() + done, data.size() - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    done += static_cast<std::size_t>(put);
  }
  return true;
}

std::optional<std::uint64_t> RecordLog::append(util::ByteSpan payload) {
  if (read_only_ || failed_) return std::nullopt;
  util::Writer frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload));
  frame.raw(payload);
  const std::uint64_t offset = end_;

  bool wrote = false;
  const fault::Fired fired = fault::point(site_append_.c_str());
  switch (fired.kind) {
    case fault::FaultKind::kError:
    case fault::FaultKind::kNoSpace:
      // Clean refusal before any byte lands: nothing to roll back.
      last_errno_ = fired.err;
      errno = fired.err;
      return std::nullopt;
    case fault::FaultKind::kShortWrite: {
      // A torn write: a prefix of the frame reaches the file, then the write
      // fails — the rollback below must erase it.
      std::size_t n = fired.arg != 0
                          ? static_cast<std::size_t>(fired.arg)
                          : frame.data().size() / 2;
      if (n > frame.data().size()) n = frame.data().size();
      if (n > 0)
        write_all(offset, {frame.data().data(), n});
      last_errno_ = fired.err;
      errno = fired.err;
      wrote = false;
      break;
    }
    default:
      wrote = write_all(offset, frame.data());
      if (!wrote) last_errno_ = errno;
      break;
  }

  if (!wrote) {
    // Roll back whatever prefix of the frame may have landed so the file
    // ends exactly at the last whole record; a reader (or reopen) never sees
    // the torn bytes. If even the rollback fails the log is poisoned: no
    // further appends, reads of verified records continue.
    const int saved = errno;
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) failed_ = true;
    errno = saved;
    return std::nullopt;
  }
  end_ += frame.data().size();
  appended_bytes_ += frame.data().size();
  return offset;
}

bool RecordLog::sync() {
  if (!fsync_) return true;
  if (const fault::Fired fired = fault::point(site_fsync_.c_str())) {
    // An fsync failure means the kernel may have dropped writes it already
    // acknowledged; there is no way to know which. Poison the log.
    last_errno_ = fired.err;
    errno = fired.err;
    failed_ = true;
    return false;
  }
  if (::fsync(fd_) != 0) {
    last_errno_ = errno;
    failed_ = true;
    return false;
  }
  ++fsyncs_;
  return true;
}

std::optional<util::Bytes> RecordLog::read_at(std::uint64_t offset) const {
  util::Bytes payload;
  std::uint64_t next = 0;
  const fault::Fired rot = fault::point(site_read_.c_str());
  if (!read_record(fd_, offset, end_, payload, next,
                   rot ? &rot : nullptr))
    return std::nullopt;
  return payload;
}

bool RecordLog::scan(
    const std::function<bool(std::uint64_t, util::Bytes)>& visit) const {
  std::uint64_t offset = kHeaderSize;
  while (offset < end_) {
    util::Bytes payload;
    std::uint64_t next = 0;
    if (!read_record(fd_, offset, end_, payload, next)) return false;
    if (!visit(offset, std::move(payload))) return true;
    offset = next;
  }
  return true;
}

bool RecordLog::close_with_footer(util::ByteSpan index_payload) {
  if (read_only_ || failed_) return false;
  const std::uint64_t index_offset = end_;
  const auto appended = append(index_payload);
  if (!appended) return false;
  util::Writer trailer;
  trailer.u64(index_offset);
  trailer.raw({reinterpret_cast<const std::uint8_t*>(kTrailerMagic), 8});
  if (!write_all(end_, trailer.data())) {
    // Half a trailer is just torn-tail bytes to the next open; drop it so
    // the file still ends at a whole record.
    if (::ftruncate(fd_, static_cast<off_t>(index_offset)) != 0) failed_ = true;
    return false;
  }
  end_ += kTrailerSize;
  // The footer must be on disk before the descriptor goes away — a clean
  // close is what lets the next open skip tail repair. The footer fsync runs
  // regardless of fsync_ (it seals the file), so it gets its own fault gate.
  bool synced;
  if (const fault::Fired fired = fault::point(site_fsync_.c_str())) {
    last_errno_ = fired.err;
    synced = false;
  } else {
    synced = ::fsync(fd_) == 0;
    if (!synced) last_errno_ = errno;
  }
  if (synced) ++fsyncs_;
  if (::close(fd_) != 0 && synced) {
    // close() can surface deferred write-back errors; a clean close cannot
    // be claimed when it does.
    last_errno_ = errno;
    synced = false;
  }
  fd_ = -1;
  return synced;
}

}  // namespace sc::store
