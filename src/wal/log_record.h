#ifndef BTRIM_WAL_LOG_RECORD_H_
#define BTRIM_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace btrim {

/// Record types for both transaction logs.
///
/// `syslogs` (redo-undo, page store) uses the kPs* types: operations are
/// logged at execution time with before- and after-images, so recovery can
/// redo winners and undo losers regardless of which dirty pages reached
/// disk.
///
/// `sysimrslogs` (redo-only, IMRS) uses the kImrs* types: a transaction's
/// IMRS changes are buffered and appended as one contiguous group
/// terminated by kImrsCommit, so recovery replays only committed groups
/// (paper Sec. II: "redo-only recovery of sysimrslogs").
enum class LogRecordType : uint8_t {
  kInvalid = 0,
  // syslogs
  kPsInsert = 1,
  kPsUpdate = 2,
  kPsDelete = 3,
  kPsCommit = 4,
  kPsAbort = 5,
  /// Retired quiescent-checkpoint marker: still parsed, never written.
  kCheckpoint = 6,
  /// Overlapped-checkpoint markers (both logs). `cts` carries the snapshot
  /// epoch: every commit with cts <= epoch is inside the snapshot, every
  /// later one outside it. A begin without a matching end (crash mid
  /// checkpoint) is ignored by recovery.
  kCheckpointBegin = 7,
  kCheckpointEnd = 8,
  /// Cold-columnar relocations (syslogs, redo-undo like the other kPs*
  /// types). kColdPlace redoes an upsert of `after` into the cold store at
  /// `rid` and undoes by erasing; kColdErase redoes a tolerant erase and
  /// undoes by re-placing `before`. Value-logged, so replay is idempotent
  /// and converges in log order (see src/cold/ and engine/recovery.cc).
  kColdPlace = 9,
  kColdErase = 10,
  // sysimrslogs
  kImrsInsert = 16,
  kImrsUpdate = 17,
  kImrsDelete = 18,
  kImrsPack = 19,  ///< row left the IMRS (its page-store insert is in syslogs)
  kImrsCommit = 20,
  /// One IMRS-resident row of an overlapped-checkpoint snapshot (live row /
  /// tombstone). Snapshot chunks interleave with concurrent commit groups;
  /// recovery applies the chosen checkpoint's snapshot rows before any
  /// post-snapshot group (see recovery.cc).
  kImrsSnapshotRow = 21,
  kImrsSnapshotDel = 22,
};

/// A parsed log record. All fields are serialized for every type; unused
/// fields are zero/empty (uniform layout keeps the codec trivial and the
/// recovery code readable; log volume is dominated by row images anyway).
struct LogRecord {
  LogRecordType type = LogRecordType::kInvalid;
  uint64_t txn_id = 0;
  uint32_t table_id = 0;
  uint32_t partition_id = 0;
  uint64_t rid = 0;       ///< encoded Rid
  uint64_t cts = 0;       ///< commit timestamp (commit records)
  uint8_t source = 0;     ///< RowSource for kImrsInsert
  std::string before;     ///< before-image (kPsUpdate / kPsDelete)
  std::string after;      ///< after-image / row data
};

/// Appends the framed serialization of `rec` to `dst`. Framing is
/// [u32 body_len][u32 fnv_checksum][body]; a torn tail is detected by
/// length or checksum mismatch and treated as end-of-log. The frame is
/// sized once and encoded straight into `dst` (no temporary body), with the
/// checksum patched in last; `dst` grows by at most one reallocation.
void AppendLogRecord(std::string* dst, const LogRecord& rec);

/// The same frame with `before` and `after` as the images (the images in
/// `rec` are ignored), so a caller can encode straight from bytes it does
/// not own as strings.
void AppendLogRecord(std::string* dst, const LogRecord& rec, Slice before,
                     Slice after);

/// Parses one framed record from the front of `input`, consuming it.
/// Returns NotFound, consuming nothing, at the end of `input` or at a bad
/// frame: one cut short or failing its checksum.
Status ParseLogRecord(Slice* input, LogRecord* rec);

/// Bytes the frame at the front of `input` declares it spans, header
/// included; a partial header declares at least a whole header.
uint64_t LogFrameBytes(Slice input);

}  // namespace btrim

#endif  // BTRIM_WAL_LOG_RECORD_H_
