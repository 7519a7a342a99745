// The delayed-write metadata table (Section 3.4).
//
// Each entry records the physical location of a replica that still needs
// background propagation. The paper keeps this table in NVRAM: the *data*
// need not be persisted because the first (completed) copy can be read back
// to finish propagation after a crash — only the locations matter, so the
// table is small. Snapshot() models what survives a crash;
// ArrayController::RestorePropagations() completes recovery.
#ifndef MIMDRAID_SRC_ARRAY_NVRAM_TABLE_H_
#define MIMDRAID_SRC_ARRAY_NVRAM_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sim/auditor.h"
#include "src/util/check.h"

namespace mimdraid {

// The key of physical sector `lba` of `disk` in the per-replica tables (the
// NVRAM table, the mirror's stale markers and bad sources). Consecutive
// sectors of one disk have consecutive keys.
inline uint64_t ReplicaKey(uint32_t disk, uint64_t lba) {
  return (static_cast<uint64_t>(disk) << 48) | lba;
}

// A pending replica propagation: the *target* location that is stale until
// the background write lands.
struct NvramEntry {
  uint32_t disk = 0;
  uint64_t lba = 0;
  uint32_t sectors = 0;
};

class NvramTable {
 public:
  // One pending propagation. `owner` is the queue entry id responsible for
  // it; `dispatched` says whether that entry has left its queue for the
  // drive. A queued owner always owns its record: a newer write takes a
  // record over only from a dispatched owner.
  struct Record {
    NvramEntry entry;
    uint64_t owner = 0;
    bool dispatched = false;
  };

  // `auditor` (borrowed, may be null) is told of every insert and erase.
  explicit NvramTable(InvariantAuditor* auditor = nullptr)
      : auditor_(auditor) {}

  // Inserts or replaces the record for (disk, lba), owned by the queued
  // entry `owner`.
  void Put(const NvramEntry& entry, uint64_t owner) {
    map_[ReplicaKey(entry.disk, entry.lba)] = Record{entry, owner};
    if (auditor_ != nullptr) {
      auditor_->OnNvramPut(entry.disk, entry.lba, owner);
    }
  }

  // The record for (disk, lba), or nullptr when nothing is pending there.
  // Valid until the next Put or erase.
  const Record* Find(uint32_t disk, uint64_t lba) const {
    auto it = map_.find(ReplicaKey(disk, lba));
    return it == map_.end() ? nullptr : &it->second;
  }

  // The owner of (disk, lba) left its queue for the drive.
  void MarkDispatched(uint32_t disk, uint64_t lba, uint64_t owner) {
    auto it = map_.find(ReplicaKey(disk, lba));
    MIMDRAID_CHECK(it != map_.end());
    MIMDRAID_CHECK_EQ(it->second.owner, owner);
    it->second.dispatched = true;
  }

  // Erases the record regardless of owner. Returns whether it existed.
  bool Erase(uint32_t disk, uint64_t lba) {
    if (map_.erase(ReplicaKey(disk, lba)) == 0) {
      return false;
    }
    if (auditor_ != nullptr) {
      auditor_->OnNvramErase(disk, lba);
    }
    return true;
  }

  // Erases only if `owner` still owns the record (a newer propagation to the
  // same location must not be dropped by a stale completion).
  bool EraseIfOwner(uint32_t disk, uint64_t lba, uint64_t owner) {
    const Record* record = Find(disk, lba);
    return record != nullptr && record->owner == owner && Erase(disk, lba);
  }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  // What survives a crash: every pending propagation target.
  std::vector<NvramEntry> Snapshot() const {
    std::vector<NvramEntry> out;
    out.reserve(map_.size());
    for (const auto& [key, record] : map_) {
      (void)key;
      out.push_back(record.entry);
    }
    return out;
  }

 private:
  InvariantAuditor* auditor_;
  std::unordered_map<uint64_t, Record> map_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ARRAY_NVRAM_TABLE_H_
