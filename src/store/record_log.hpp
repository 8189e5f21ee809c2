// Append-only CRC-framed record file — the byte layer under every sc::store
// artifact (block log, tip journal, snapshot files).
//
// Layout:
//
//   [8-byte magic "SCLOG01\n"]
//   repeat: [u32 payload_len][u32 crc32(payload)][payload]
//   optional clean-close footer:
//       [one ordinary record holding an owner-defined index payload]
//       [16-byte trailer: u64 index_record_offset | magic "SCIDX01\n"]
//
// Recovery contract (the crash-safety core of the subsystem): open() scans
// for a valid trailer first. If present the file was closed cleanly — the
// footer payload is surfaced to the owner and the footer region is truncated
// away so appends resume where the index sat. Otherwise the file is scanned
// record by record; the first short, oversized or CRC-failing record marks a
// torn tail and the file is truncated back to the last whole record. A torn
// record can only be the result of a crash mid-append, so truncation never
// loses acknowledged (fsync'd) data.
//
// All writes go through a single file descriptor with explicit fsync control;
// offsets returned by append() are stable addresses for later read_at().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace sc::store {

class RecordLog {
 public:
  /// Outcome of opening (and, when needed, repairing) a log file.
  struct OpenResult {
    std::unique_ptr<RecordLog> log;
    util::Bytes footer;      ///< Index payload from a clean close; empty if none.
    bool had_footer = false; ///< True when the clean-close trailer was present.
    bool torn_tail_truncated = false;
    std::uint64_t truncated_bytes = 0;  ///< Bytes dropped by tail repair.
    bool created = false;               ///< File did not exist before.
  };

  /// Opens or creates `path`, runs recovery, and positions for append.
  /// nullopt (with `why`) on I/O errors or a corrupt header. `scope` names
  /// the fault-injection site family this log reports under ("store.log",
  /// "store.wal", "store.snap" — see docs/robustness.md); the per-call sites
  /// are `<scope>.append`, `<scope>.fsync` and `<scope>.read`.
  static std::optional<OpenResult> open(const std::string& path,
                                        bool fsync_writes, std::string* why,
                                        const std::string& scope = "store.log");

  /// Read-only open for inspection tools: never writes — a clean-close footer
  /// is surfaced but left in place, and a torn tail is reported (flag + byte
  /// count) but NOT repaired; reads simply stop at the last whole record.
  /// append()/sync()/close_with_footer() fail on a log opened this way.
  /// nullopt (with `why`) when the file is missing, unreadable, or has a bad
  /// header.
  static std::optional<OpenResult> open_read_only(const std::string& path,
                                                  std::string* why);

  /// The first `max_bytes` bytes of the file's first record payload, NOT
  /// checksummed: a cheap peek at a record header (snapshot height and id)
  /// whose full read verifies the CRC later. nullopt when the file is
  /// missing, has a bad magic, or its first record is shorter than
  /// `max_bytes` or runs past the end of the file.
  static std::optional<util::Bytes> peek_first(const std::string& path,
                                               std::size_t max_bytes);
  /// The file's first record payload, CRC-verified, read in one pass
  /// without opening the log for append (no tail repair). nullopt when the
  /// file is missing, has a bad magic, or the record is torn or corrupt.
  static std::optional<util::Bytes> read_first(const std::string& path);

  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Appends one record; returns its offset (stable read_at address), or
  /// nullopt on I/O failure. Does NOT sync — callers order sync() explicitly.
  /// A failed append (including an injected short write) is rolled back by
  /// truncating the file to its pre-append size, so a failure never leaves a
  /// torn record for the next reader; only if that rollback itself fails is
  /// the log poisoned (failed()) and closed to further appends.
  std::optional<std::uint64_t> append(util::ByteSpan payload);

  /// fsyncs the file when fsync_writes is on (no-op otherwise). False on
  /// fsync failure, which poisons the log: durability of already-buffered
  /// bytes is unknown, so further appends are refused while reads of
  /// verified records keep working.
  bool sync();

  /// Reads and CRC-verifies the record at `offset` (as returned by append or
  /// scan). nullopt on bad offset, short read or checksum mismatch.
  std::optional<util::Bytes> read_at(std::uint64_t offset) const;

  /// Sequentially visits every record. The callback returns false to stop
  /// early. Returns false only on I/O/corruption (which open() should have
  /// repaired — a scan failure after that means the file changed under us).
  bool scan(const std::function<bool(std::uint64_t offset, util::Bytes payload)>&
                visit) const;

  /// Appends the owner's index payload as a final record plus the clean-close
  /// trailer, syncs, and closes the descriptor. The next open() surfaces the
  /// payload and resumes appends in its place.
  bool close_with_footer(util::ByteSpan index_payload);

  /// Current append position == logical file size (footer excluded).
  std::uint64_t size() const { return end_; }
  std::uint64_t fsync_count() const { return fsyncs_; }
  std::uint64_t appended_bytes() const { return appended_bytes_; }
  const std::string& path() const { return path_; }

  bool read_only() const { return read_only_; }
  /// True once an unrecoverable write-path failure poisoned the log (failed
  /// append rollback or failed fsync). Appends are refused; reads still work.
  bool failed() const { return failed_; }
  /// errno of the failure that poisoned or last failed this log (0 if none).
  int last_errno() const { return last_errno_; }

 private:
  RecordLog(std::string path, int fd, bool fsync_writes, std::uint64_t end,
            bool read_only = false, std::string scope = "store.log")
      : path_(std::move(path)),
        fd_(fd),
        fsync_(fsync_writes),
        read_only_(read_only),
        end_(end),
        site_append_(scope + ".append"),
        site_fsync_(scope + ".fsync"),
        site_read_(scope + ".read") {}

  bool write_all(std::uint64_t offset, util::ByteSpan data);

  std::string path_;
  int fd_ = -1;
  bool fsync_ = true;
  bool read_only_ = false;
  bool failed_ = false;
  int last_errno_ = 0;
  std::uint64_t end_ = 0;  ///< Next append offset.
  std::uint64_t fsyncs_ = 0;
  std::uint64_t appended_bytes_ = 0;
  // Failpoint site names, precomputed so the disabled path stays allocation-
  // free (fault::point itself is one relaxed atomic load).
  std::string site_append_;
  std::string site_fsync_;
  std::string site_read_;
};

}  // namespace sc::store
