#include "wal/log_record.h"

#include "common/coding.h"
#include "common/hash.h"

namespace btrim {

namespace {

// Frame header: [u32 body_len][u32 checksum].
constexpr size_t kHeaderBytes = 8;
// Fixed body prefix: type(1) txn(8) table(4) part(4) rid(8) cts(8) source(1).
constexpr size_t kFixedBodyBytes = 34;

bool GetLengthPrefixed(Slice* input, std::string* out) {
  if (input->size() < 4) return false;
  const uint32_t len = DecodeFixed32(input->data());
  input->remove_prefix(4);
  if (input->size() < len) return false;
  out->assign(input->data(), len);
  input->remove_prefix(len);
  return true;
}

}  // namespace

void AppendLogRecord(std::string* dst, const LogRecord& rec) {
  AppendLogRecord(dst, rec, rec.before, rec.after);
}

void AppendLogRecord(std::string* dst, const LogRecord& rec, Slice before,
                     Slice after) {
  const size_t body_len =
      kFixedBodyBytes + 4 + before.size() + 4 + after.size();
  const size_t start = dst->size();
  dst->reserve(start + kHeaderBytes + body_len);

  // Header, fixed prefix and the before-image length in one append; the
  // checksum is patched in once the whole body is in place.
  char head[kHeaderBytes + kFixedBodyBytes + 4];
  char* p = head;
  EncodeFixed32(p, static_cast<uint32_t>(body_len));
  EncodeFixed32(p + 4, 0);
  p += kHeaderBytes;
  *p++ = static_cast<char>(rec.type);
  EncodeFixed64(p, rec.txn_id);
  EncodeFixed32(p + 8, rec.table_id);
  EncodeFixed32(p + 12, rec.partition_id);
  EncodeFixed64(p + 16, rec.rid);
  EncodeFixed64(p + 24, rec.cts);
  p[32] = static_cast<char>(rec.source);
  EncodeFixed32(p + 33, static_cast<uint32_t>(before.size()));
  dst->append(head, sizeof(head));
  dst->append(before.data(), before.size());
  PutFixed32(dst, static_cast<uint32_t>(after.size()));
  dst->append(after.data(), after.size());

  char* frame = dst->data() + start;
  EncodeFixed32(frame + 4, static_cast<uint32_t>(
                               HashBytes(frame + kHeaderBytes, body_len)));
}

Status ParseLogRecord(Slice* input, LogRecord* rec) {
  if (input->size() < 8) return Status::NotFound("end of log");
  const uint32_t body_len = DecodeFixed32(input->data());
  const uint32_t checksum = DecodeFixed32(input->data() + 4);
  if (input->size() < 8 + static_cast<size_t>(body_len)) {
    return Status::NotFound("torn record at log tail");
  }
  Slice body(input->data() + 8, body_len);
  if (static_cast<uint32_t>(HashBytes(body.data(), body.size())) != checksum) {
    return Status::NotFound("checksum mismatch at log tail");
  }
  input->remove_prefix(8 + body_len);

  if (body.size() < kFixedBodyBytes) {
    return Status::Corruption("log record too short");
  }
  rec->type = static_cast<LogRecordType>(body[0]);
  body.remove_prefix(1);
  rec->txn_id = DecodeFixed64(body.data());
  body.remove_prefix(8);
  rec->table_id = DecodeFixed32(body.data());
  body.remove_prefix(4);
  rec->partition_id = DecodeFixed32(body.data());
  body.remove_prefix(4);
  rec->rid = DecodeFixed64(body.data());
  body.remove_prefix(8);
  rec->cts = DecodeFixed64(body.data());
  body.remove_prefix(8);
  rec->source = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  if (!GetLengthPrefixed(&body, &rec->before) ||
      !GetLengthPrefixed(&body, &rec->after)) {
    return Status::Corruption("log record image truncated");
  }
  return Status::OK();
}

}  // namespace btrim
