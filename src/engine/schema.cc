#include "engine/schema.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace btrim {

static_assert(kMaxColumns <= 64, "RowEditor::set_columns is a 64-bit mask");

namespace {

size_t FixedWidth(ColumnType type) {
  return type == ColumnType::kInt32 ? 4 : 8;
}

}  // namespace

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (const Column& c : columns_) {
    max_record_size_ +=
        c.type == ColumnType::kString ? 2 + c.max_len : FixedWidth(c.type);
  }
}

RecordBuilder& RecordBuilder::AddInt32(int32_t v) {
  assert(next_col_ < schema_->num_columns() &&
         schema_->column(next_col_).type == ColumnType::kInt32);
  PutFixed32(&buf_, static_cast<uint32_t>(v));
  ++next_col_;
  return *this;
}

RecordBuilder& RecordBuilder::AddInt64(int64_t v) {
  assert(next_col_ < schema_->num_columns() &&
         schema_->column(next_col_).type == ColumnType::kInt64);
  PutFixed64(&buf_, static_cast<uint64_t>(v));
  ++next_col_;
  return *this;
}

RecordBuilder& RecordBuilder::AddDouble(double v) {
  assert(next_col_ < schema_->num_columns() &&
         schema_->column(next_col_).type == ColumnType::kDouble);
  uint64_t bits;
  memcpy(&bits, &v, 8);
  PutFixed64(&buf_, bits);
  ++next_col_;
  return *this;
}

RecordBuilder& RecordBuilder::AddString(Slice v) {
  assert(next_col_ < schema_->num_columns() &&
         schema_->column(next_col_).type == ColumnType::kString);
  assert(v.size() <= schema_->column(next_col_).max_len);
  PutFixed16(&buf_, static_cast<uint16_t>(v.size()));
  buf_.append(v.data(), v.size());
  ++next_col_;
  return *this;
}

Slice RecordBuilder::Finish() const {
  assert(next_col_ == schema_->num_columns());
  return Slice(buf_);
}

RecordView::RecordView(const Schema* schema, Slice data)
    : schema_(schema), data_(data) {
  // The codec's one offset walk; RowEditor inherits it.
  if (schema->num_columns() > kMaxColumns) return;
  size_t off = 0;
  for (size_t i = 0; i < schema->num_columns(); ++i) {
    offsets_[i] = static_cast<uint32_t>(off);
    const ColumnType type = schema->column(i).type;
    if (type == ColumnType::kString) {
      if (off + 2 > data.size()) return;
      off += 2 + DecodeFixed16(data.data() + off);
    } else {
      off += FixedWidth(type);
    }
    if (off > data.size()) return;
  }
  valid_ = true;
}

int32_t RecordView::GetInt32(size_t col) const {
  assert(valid_ && schema_->column(col).type == ColumnType::kInt32);
  return static_cast<int32_t>(DecodeFixed32(data_.data() + offsets_[col]));
}

int64_t RecordView::GetInt64(size_t col) const {
  assert(valid_ && schema_->column(col).type == ColumnType::kInt64);
  return static_cast<int64_t>(DecodeFixed64(data_.data() + offsets_[col]));
}

double RecordView::GetDouble(size_t col) const {
  assert(valid_ && schema_->column(col).type == ColumnType::kDouble);
  uint64_t bits = DecodeFixed64(data_.data() + offsets_[col]);
  double v;
  memcpy(&v, &bits, 8);
  return v;
}

Slice RecordView::GetString(size_t col) const {
  assert(valid_ && schema_->column(col).type == ColumnType::kString);
  const char* p = data_.data() + offsets_[col];
  const uint16_t len = DecodeFixed16(p);
  return Slice(p + 2, len);
}

int64_t RecordView::GetInt(size_t col) const {
  return schema_->column(col).type == ColumnType::kInt32
             ? GetInt32(col)
             : GetInt64(col);
}

void RowEditor::SetFixed(size_t col, ColumnType type, uint64_t bits) {
  assert(valid_ && schema_->column(col).type == type);
  char* p = record_->data() + offsets_[col];
  if (type == ColumnType::kInt32) {
    EncodeFixed32(p, static_cast<uint32_t>(bits));
  } else {
    EncodeFixed64(p, bits);
  }
  set_columns_ |= uint64_t{1} << col;
}

void RowEditor::SetInt32(size_t col, int32_t v) {
  SetFixed(col, ColumnType::kInt32, static_cast<uint32_t>(v));
}

void RowEditor::SetInt64(size_t col, int64_t v) {
  SetFixed(col, ColumnType::kInt64, static_cast<uint64_t>(v));
}

void RowEditor::SetDouble(size_t col, double v) {
  uint64_t bits;
  memcpy(&bits, &v, 8);
  SetFixed(col, ColumnType::kDouble, bits);
}

void RowEditor::SetString(size_t col, Slice v) {
  assert(valid_ && schema_->column(col).type == ColumnType::kString);
  set_columns_ |= uint64_t{1} << col;
  if (v.size() > schema_->column(col).max_len) {
    too_long_ = true;
    return;
  }
  const size_t old_len = GetString(col).size();
  record_->replace(offsets_[col] + 2, old_len, v.data(), v.size());
  EncodeFixed16(record_->data() + offsets_[col],
                static_cast<uint16_t>(v.size()));
  data_ = Slice(*record_);
  for (size_t i = col + 1; i < schema_->num_columns(); ++i) {
    offsets_[i] += static_cast<uint32_t>(v.size() - old_len);  // mod 2^32
  }
}

void KeyEncoder::AppendInt(std::string* out, int64_t v) {
  // Sign-bias so that negative values sort before positive under memcmp.
  PutBigEndian64(out, static_cast<uint64_t>(v) + (1ull << 63));
}

void KeyEncoder::AppendPaddedString(std::string* out, Slice v,
                                    uint32_t max_len) {
  out->append(v.data(), v.size());
  out->append(max_len - v.size(), '\0');
}

std::string KeyEncoder::KeyForRecord(Slice record) const {
  RecordView view(schema_, record);
  assert(view.valid());
  std::string key;
  for (int col : key_columns_) {
    const Column& c = schema_->column(col);
    switch (c.type) {
      case ColumnType::kInt32:
        AppendInt(&key, view.GetInt32(col));
        break;
      case ColumnType::kInt64:
        AppendInt(&key, view.GetInt64(col));
        break;
      case ColumnType::kString:
        AppendPaddedString(&key, view.GetString(col), c.max_len);
        break;
      case ColumnType::kDouble:
        assert(false && "double key columns are not supported");
        break;
    }
  }
  return key;
}

std::string KeyEncoder::KeyForInts(
    std::initializer_list<int64_t> values) const {
  assert(values.size() == key_columns_.size());
  return PrefixForInts(values);
}

std::string KeyEncoder::PrefixForInts(
    std::initializer_list<int64_t> values) const {
  assert(values.size() <= key_columns_.size());
  std::string key;
  for (int64_t v : values) AppendInt(&key, v);
  return key;
}

}  // namespace btrim
