#ifndef BTRIM_ENGINE_TABLE_H_
#define BTRIM_ENGINE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ilm/partition_state.h"
#include "imrs/row.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "engine/schema.h"
#include "page/device.h"
#include "page/heap_file.h"

namespace btrim {

/// Definition of a secondary index.
struct IndexDef {
  std::string name;
  std::vector<int> key_columns;
  bool unique = false;
};

/// Everything needed to create a table.
struct TableOptions {
  std::string name;
  Schema schema;
  std::vector<int> primary_key;  ///< column indexes; must be non-empty
  std::vector<IndexDef> secondary_indexes;

  /// Hash partitioning: `partition_column` (an integer column) modulo
  /// `num_partitions`. -1 leaves the table single-partitioned (treated as
  /// one partition for all ILM purposes — paper Sec. V).
  int num_partitions = 1;
  int partition_column = -1;

  /// Range partitioning (paper Sec. V's running example: an orders table
  /// range-partitioned on order_date whose most recent partition is hot).
  /// When non-empty, `range_bounds` must be ascending; a row with partition
  /// column value v goes to the first partition whose bound exceeds v, and
  /// values >= the last bound go to the final catch-all partition. The
  /// partition count becomes range_bounds.size() + 1 and `num_partitions`
  /// is ignored. Requires `partition_column` >= 0.
  std::vector<int64_t> range_bounds;

  /// Build the in-memory hash index under the primary key (Sec. II).
  bool use_hash_index = true;

  /// Pin the table fully in the IMRS (the paper's Sec. X future-work
  /// feature): ILM rules are overridden — never tuner-disabled, never
  /// packed, admitted even under bypass backpressure. Combine with
  /// Database::PrewarmTable for a "pre-warmed IMRS cache".
  bool pin_in_imrs = false;
};

/// One data partition of a table: a heap file plus its ILM state.
struct TablePartition {
  uint32_t id = 0;
  std::unique_ptr<HeapFile> heap;
  PartitionState* ilm = nullptr;  ///< owned by IlmManager
};

/// A live secondary index.
struct SecondaryIndex {
  IndexDef def;
  std::unique_ptr<KeyEncoder> encoder;
  std::unique_ptr<BTree> tree;
};

/// An IMRS-enabled table: schema, partitioned heap storage, a unique
/// primary B+Tree, optional secondary B+Trees, and the IMRS hash index.
/// Constructed by Database::CreateTable; all mutation goes through the
/// Database DML API.
class Table {
 public:
  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const KeyEncoder& pk_encoder() const { return *pk_encoder_; }
  BTree* primary_index() { return primary_.get(); }
  HashIndex<ImrsRow*>* hash_index() {
    return use_hash_index_ ? &hash_index_ : nullptr;
  }
  std::vector<SecondaryIndex>& secondaries() { return secondaries_; }

  size_t num_partitions() const { return partitions_.size(); }
  TablePartition& partition(size_t i) { return partitions_[i]; }

  /// Partition that owns a record: range lookup when range bounds are set,
  /// hash otherwise; single-partition tables always return partition 0.
  TablePartition& PartitionForRecord(Slice record) {
    if (partition_column_ < 0 || partitions_.size() == 1) {
      return partitions_[0];
    }
    RecordView view(&schema_, record);
    const int64_t v = view.GetInt(static_cast<size_t>(partition_column_));
    return partitions_[PartitionIndexForValue(v)];
  }

  /// Partition index for a partition-column value.
  size_t PartitionIndexForValue(int64_t v) const {
    if (partition_column_ < 0 || partitions_.size() == 1) return 0;
    if (!range_bounds_.empty()) {
      // First partition whose (exclusive) upper bound exceeds v.
      const auto it =
          std::upper_bound(range_bounds_.begin(), range_bounds_.end(), v);
      return static_cast<size_t>(it - range_bounds_.begin());
    }
    return static_cast<size_t>(v) % partitions_.size();
  }

  /// Primary-key, secondary-index and partition columns (bit i = column i):
  /// they place the row, so Database::Update refuses edits that set them.
  uint64_t placement_columns() const { return placement_columns_; }

  bool range_partitioned() const { return !range_bounds_.empty(); }
  const std::vector<int64_t>& range_bounds() const { return range_bounds_; }

  /// Partition owning an existing RID (RIDs embed the heap file id).
  TablePartition* PartitionForRid(Rid rid) {
    auto it = partition_by_file_.find(rid.file_id);
    return it == partition_by_file_.end() ? nullptr : &partitions_[it->second];
  }

 private:
  friend class Database;

  uint32_t id_ = 0;
  std::string name_;
  Schema schema_;
  std::unique_ptr<KeyEncoder> pk_encoder_;
  std::unique_ptr<BTree> primary_;
  std::vector<SecondaryIndex> secondaries_;
  bool use_hash_index_ = true;
  HashIndex<ImrsRow*> hash_index_;
  int partition_column_ = -1;
  uint64_t placement_columns_ = 0;
  std::vector<int64_t> range_bounds_;
  std::vector<TablePartition> partitions_;
  std::unordered_map<uint16_t, size_t> partition_by_file_;
};

}  // namespace btrim

#endif  // BTRIM_ENGINE_TABLE_H_
