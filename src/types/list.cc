#include "types/list.h"

namespace forkbase {

StatusOr<FList> FList::Create(ChunkStore* store,
                              const std::vector<std::string>& elements) {
  FB_ASSIGN_OR_RETURN(TreeInfo info, PosTree::BuildList(store, elements));
  return FList(PosTree(store, ChunkType::kListLeaf, info.root));
}

FList FList::Attach(const ChunkStore* store, const Hash256& root) {
  return FList(PosTree(store, ChunkType::kListLeaf, root));
}

StatusOr<std::vector<std::string>> FList::Elements() const {
  std::vector<std::string> out;
  FB_RETURN_IF_ERROR(tree_.Scan([&out](const EntryView& e) {
    out.push_back(e.value.ToString());
    return Status::OK();
  }));
  return out;
}

StatusOr<FList> FList::Splice(uint64_t start, uint64_t remove,
                              const std::vector<std::string>& inserts) const {
  FB_ASSIGN_OR_RETURN(TreeInfo info,
                      tree_.SpliceElements(start, remove, inserts));
  return FList(PosTree(tree_.store(), ChunkType::kListLeaf, info.root));
}

StatusOr<FList> FList::Delete(uint64_t index) const {
  FB_ASSIGN_OR_RETURN(uint64_t size, Size());
  if (index >= size) return Status::NotFound("index out of range");
  return Splice(index, 1, {});
}

StatusOr<FList> FList::Update(uint64_t index,
                              const std::string& element) const {
  FB_ASSIGN_OR_RETURN(uint64_t size, Size());
  if (index >= size) return Status::NotFound("index out of range");
  return Splice(index, 1, {element});
}

StatusOr<FList> FList::Append(const std::string& element) const {
  FB_ASSIGN_OR_RETURN(uint64_t size, Size());
  return Splice(size, 0, {element});
}

StatusOr<std::optional<SeqDelta>> FList::Diff(const FList& other,
                                              DiffMetrics* metrics) const {
  return DiffSequence(tree_, other.tree_, metrics);
}

}  // namespace forkbase
