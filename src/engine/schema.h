#ifndef BTRIM_ENGINE_SCHEMA_H_
#define BTRIM_ENGINE_SCHEMA_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace btrim {

/// Column value types supported by the record codec.
enum class ColumnType : uint8_t {
  kInt32,
  kInt64,
  kDouble,
  kString,  ///< variable length up to max_len bytes
};

/// One column definition.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  uint32_t max_len = 0;  ///< strings only: maximum byte length

  static Column Int32(std::string name) {
    return Column{std::move(name), ColumnType::kInt32, 0};
  }
  static Column Int64(std::string name) {
    return Column{std::move(name), ColumnType::kInt64, 0};
  }
  static Column Double(std::string name) {
    return Column{std::move(name), ColumnType::kDouble, 0};
  }
  static Column String(std::string name, uint32_t max_len) {
    return Column{std::move(name), ColumnType::kString, max_len};
  }
};

/// An ordered list of columns. Records are encoded positionally:
/// int32 -> 4 bytes LE, int64/double -> 8 bytes LE,
/// string -> u16 length + bytes.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Upper bound on an encoded record's size (drives slots-per-page).
  size_t MaxRecordSize() const { return max_record_size_; }

 private:
  std::vector<Column> columns_;
  size_t max_record_size_ = 0;
};

/// Encodes one record, column by column, in schema order.
class RecordBuilder {
 public:
  explicit RecordBuilder(const Schema* schema) : schema_(schema) {
    buf_.reserve(schema->MaxRecordSize());
  }

  RecordBuilder& AddInt32(int32_t v);
  RecordBuilder& AddInt64(int64_t v);
  RecordBuilder& AddDouble(double v);
  RecordBuilder& AddString(Slice v);

  /// Encoded record; valid until the builder is destroyed.
  /// All columns must have been added.
  Slice Finish() const;

 private:
  const Schema* const schema_;
  std::string buf_;
  size_t next_col_ = 0;
};

/// Widest schema the record codec handles (CreateTable rejects wider ones):
/// decoding fills an inline array of this many offsets, so never allocates.
inline constexpr size_t kMaxColumns = 32;

/// Zero-copy decoded view over an encoded record.
class RecordView {
 public:
  RecordView(const Schema* schema, Slice data);

  bool valid() const { return valid_; }

  int32_t GetInt32(size_t col) const;
  int64_t GetInt64(size_t col) const;
  double GetDouble(size_t col) const;
  Slice GetString(size_t col) const;

  /// Generic numeric accessor (int32/int64 columns).
  int64_t GetInt(size_t col) const;

 protected:
  const Schema* const schema_;
  Slice data_;
  uint32_t offsets_[kMaxColumns];  // byte offset of each column
  bool valid_ = false;
};

/// Edits an encoded record in place (Database::Update hands one to its edit
/// callback). A fixed-width set overwrites the column's bytes; a string set
/// splices the new bytes in and moves the columns after it. Reads see the
/// edits so far; a GetString slice is valid until the next SetString. The
/// editor records which columns were set, so the caller can refuse an edit;
/// a string over its column's max_len is recorded, not stored.
class RowEditor : public RecordView {
 public:
  /// Edits `*record`, which must outlive the editor.
  RowEditor(const Schema* schema, std::string* record)
      : RecordView(schema, Slice(*record)), record_(record) {}

  void SetInt32(size_t col, int32_t v);
  void SetInt64(size_t col, int64_t v);
  void SetDouble(size_t col, double v);
  void SetString(size_t col, Slice v);

  /// Bit i is set when column i was set.
  uint64_t set_columns() const { return set_columns_; }
  /// A SetString exceeded its column's max_len.
  bool too_long() const { return too_long_; }

 private:
  void SetFixed(size_t col, ColumnType type, uint64_t bits);

  std::string* const record_;
  uint64_t set_columns_ = 0;
  bool too_long_ = false;
};

/// Builds memcmp-ordered index keys: integers are encoded big-endian with a
/// sign-bias, doubles are rejected (not valid key columns), strings are
/// zero-padded to the column's max_len so composite keys stay aligned.
class KeyEncoder {
 public:
  explicit KeyEncoder(const Schema* schema, std::vector<int> key_columns)
      : schema_(schema), key_columns_(std::move(key_columns)) {}

  /// Key for an encoded record.
  std::string KeyForRecord(Slice record) const;

  /// Key from explicit integer components (point lookups). The number of
  /// values must equal the number of key columns, and all key columns must
  /// be integer-typed.
  std::string KeyForInts(std::initializer_list<int64_t> values) const;

  /// Prefix of a key covering the first `n` key columns (range scans).
  std::string PrefixForInts(std::initializer_list<int64_t> values) const;

  const std::vector<int>& key_columns() const { return key_columns_; }

  /// Appends the encoding of one typed value.
  static void AppendInt(std::string* out, int64_t v);
  static void AppendPaddedString(std::string* out, Slice v, uint32_t max_len);

 private:
  const Schema* const schema_;
  const std::vector<int> key_columns_;
};

}  // namespace btrim

#endif  // BTRIM_ENGINE_SCHEMA_H_
