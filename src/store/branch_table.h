// BranchTable — per-key branch heads (the only mutable state in ForkBase).
//
// Everything else in the system is immutable and content-addressed; the
// branch table maps (key, branch) -> head uid and advances on Put/Merge.
// Under the §II-D threat model this is exactly the state the *client* keeps
// ("users keep track of the latest uid of every branch"), so it persists in
// a plain sidecar file, not inside the (possibly malicious) chunk store.
#ifndef FORKBASE_STORE_BRANCH_TABLE_H_
#define FORKBASE_STORE_BRANCH_TABLE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/sha256.h"
#include "util/status.h"

namespace forkbase {

class BranchTable {
 public:
  /// Head uid of (key, branch); NotFound if absent.
  StatusOr<Hash256> Head(const std::string& key,
                         const std::string& branch) const;

  /// Sets/advances a head.
  void SetHead(const std::string& key, const std::string& branch,
               const Hash256& uid);

  /// Creates (key, branch) at `uid` in one step. AlreadyExists if the
  /// branch exists, so of racing creators exactly one wins.
  Status Create(const std::string& key, const std::string& branch,
                const Hash256& uid);

  /// Creates `to` pointing at `from`'s head. AlreadyExists if `to` exists.
  Status Fork(const std::string& key, const std::string& to,
              const std::string& from);

  Status Rename(const std::string& key, const std::string& from,
                const std::string& to);
  Status Delete(const std::string& key, const std::string& branch);

  bool Exists(const std::string& key, const std::string& branch) const;

  std::vector<std::string> Keys() const;
  /// Branches of a key, name-sorted.
  std::vector<std::string> Branches(const std::string& key) const;
  /// All (branch, head) pairs of a key.
  std::vector<std::pair<std::string, Hash256>> Heads(
      const std::string& key) const;

  /// Plain-text persistence: one "key\tbranch\tbase32-uid" line per head.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<std::string, Hash256>> heads_;
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_BRANCH_TABLE_H_
