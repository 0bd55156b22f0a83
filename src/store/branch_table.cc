#include "store/branch_table.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace forkbase {

StatusOr<Hash256> BranchTable::Head(const std::string& key,
                                    const std::string& branch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return Status::NotFound("key " + key);
  auto bit = kit->second.find(branch);
  if (bit == kit->second.end()) {
    return Status::NotFound("branch " + branch + " of key " + key);
  }
  return bit->second;
}

void BranchTable::SetHead(const std::string& key, const std::string& branch,
                          const Hash256& uid) {
  std::lock_guard<std::mutex> lock(mu_);
  heads_[key][branch] = uid;
}

Status BranchTable::Create(const std::string& key, const std::string& branch,
                           const Hash256& uid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!heads_[key].try_emplace(branch, uid).second) {
    return Status::AlreadyExists("branch " + branch + " of key " + key);
  }
  return Status::OK();
}

Status BranchTable::Fork(const std::string& key, const std::string& to,
                         const std::string& from) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return Status::NotFound("key " + key);
  auto fit = kit->second.find(from);
  if (fit == kit->second.end()) {
    return Status::NotFound("branch " + from + " of key " + key);
  }
  auto [it, inserted] = kit->second.try_emplace(to, fit->second);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("branch " + to + " of key " + key);
  }
  return Status::OK();
}

Status BranchTable::Rename(const std::string& key, const std::string& from,
                           const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return Status::NotFound("key " + key);
  auto fit = kit->second.find(from);
  if (fit == kit->second.end()) {
    return Status::NotFound("branch " + from + " of key " + key);
  }
  if (kit->second.count(to)) {
    return Status::AlreadyExists("branch " + to + " of key " + key);
  }
  kit->second.emplace(to, fit->second);
  kit->second.erase(fit);
  return Status::OK();
}

Status BranchTable::Delete(const std::string& key, const std::string& branch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return Status::NotFound("key " + key);
  if (kit->second.erase(branch) == 0) {
    return Status::NotFound("branch " + branch + " of key " + key);
  }
  if (kit->second.empty()) heads_.erase(kit);
  return Status::OK();
}

bool BranchTable::Exists(const std::string& key,
                         const std::string& branch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  return kit != heads_.end() && kit->second.count(branch) > 0;
}

std::vector<std::string> BranchTable::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(heads_.size());
  for (const auto& [key, branches] : heads_) {
    (void)branches;
    out.push_back(key);
  }
  return out;
}

std::vector<std::string> BranchTable::Branches(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return out;
  for (const auto& [branch, uid] : kit->second) {
    (void)uid;
    out.push_back(branch);
  }
  return out;
}

std::vector<std::pair<std::string, Hash256>> BranchTable::Heads(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Hash256>> out;
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return out;
  for (const auto& [branch, uid] : kit->second) {
    out.emplace_back(branch, uid);
  }
  return out;
}

Status BranchTable::SaveToFile(const std::string& path) const {
  // Write a sibling file and rename it over `path`: a save that fails (or
  // a process crash mid-write) leaves the previous table intact, never a
  // truncated one — an empty table would make every chunk unreachable to
  // GC. Neither file nor directory is fsynced, so after a power loss some
  // filesystems can keep the rename without the data and leave an empty
  // table all the same.
  const std::string tmp = path + ".tmp";
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + tmp);
    for (const auto& [key, branches] : heads_) {
      for (const auto& [branch, uid] : branches) {
        out << key << '\t' << branch << '\t' << uid.ToBase32() << '\n';
      }
    }
    out.flush();
    if (!out) return Status::IOError("write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  return Status::OK();
}

Status BranchTable::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::map<std::string, std::map<std::string, Hash256>> loaded;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string key, branch, uid_text;
    if (!std::getline(ss, key, '\t') || !std::getline(ss, branch, '\t') ||
        !std::getline(ss, uid_text)) {
      return Status::Corruption("malformed branch-table line: " + line);
    }
    Hash256 uid;
    if (!Hash256::FromBase32(uid_text, &uid)) {
      return Status::Corruption("malformed uid in branch table: " + uid_text);
    }
    loaded[key][branch] = uid;
  }
  std::lock_guard<std::mutex> lock(mu_);
  heads_ = std::move(loaded);
  return Status::OK();
}

}  // namespace forkbase
