#ifndef BTRIM_TESTS_COLLECT_SCAN_H_
#define BTRIM_TESTS_COLLECT_SCAN_H_

// Collecting adapters over the BTree::Scan visitor for the index suites.

#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "index/btree.h"

namespace btrim {
namespace testing {

using IndexEntries = std::vector<std::pair<std::string, uint64_t>>;

/// Appends the entries of `tree` with lower <= key < upper to `*out`,
/// stopping after `limit` of them (0 = all).
inline Status CollectScan(const BTree& tree, Slice lower, Slice upper,
                          IndexEntries* out, size_t limit = 0) {
  return tree.Scan(lower, upper, [&](Slice key, uint64_t value) {
    out->emplace_back(key.ToString(), value);
    return limit == 0 || out->size() < limit;
  });
}

/// Appends the entries whose key starts with `prefix`.
inline Status CollectPrefix(const BTree& tree, Slice prefix,
                            IndexEntries* out) {
  // Upper bound: the prefix with its last non-0xff byte bumped; all 0xff
  // scans to the end of the tree.
  std::string upper = prefix.ToString();
  while (!upper.empty() && static_cast<unsigned char>(upper.back()) == 0xff) {
    upper.pop_back();
  }
  if (!upper.empty()) upper.back() = static_cast<char>(upper.back() + 1);
  return CollectScan(tree, prefix, Slice(upper), out);
}

}  // namespace testing
}  // namespace btrim

#endif  // BTRIM_TESTS_COLLECT_SCAN_H_
