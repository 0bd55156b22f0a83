// FList — an immutable positional sequence of variable-length elements.
#ifndef FORKBASE_TYPES_LIST_H_
#define FORKBASE_TYPES_LIST_H_

#include <string>
#include <vector>

#include "postree/diff.h"
#include "postree/merge.h"
#include "postree/tree.h"

namespace forkbase {

class FList {
 public:
  static StatusOr<FList> Create(ChunkStore* store,
                                const std::vector<std::string>& elements);
  static FList Attach(const ChunkStore* store, const Hash256& root);

  const Hash256& root() const { return tree_.root(); }
  const PosTree& tree() const { return tree_; }

  StatusOr<uint64_t> Size() const { return tree_.Count(); }
  /// Element at index; NotFound past the end. O(log N).
  StatusOr<std::string> Get(uint64_t index) const {
    return tree_.Element(index);
  }
  /// All elements in order.
  StatusOr<std::vector<std::string>> Elements() const;

  /// Functional splice: replaces `remove` elements at `start` with `inserts`.
  StatusOr<FList> Splice(uint64_t start, uint64_t remove,
                         const std::vector<std::string>& inserts) const;
  StatusOr<FList> Append(const std::string& element) const;
  StatusOr<FList> Insert(uint64_t index, const std::string& element) const {
    return Splice(index, 0, {element});
  }
  /// NotFound("index out of range") past the end, as Get.
  StatusOr<FList> Delete(uint64_t index) const;
  StatusOr<FList> Update(uint64_t index, const std::string& element) const;

  StatusOr<std::optional<SeqDelta>> Diff(const FList& other,
                                         DiffMetrics* metrics = nullptr) const;

  Status Validate() const { return tree_.Validate(); }

 private:
  explicit FList(PosTree tree) : tree_(std::move(tree)) {}
  PosTree tree_;
};

}  // namespace forkbase

#endif  // FORKBASE_TYPES_LIST_H_
