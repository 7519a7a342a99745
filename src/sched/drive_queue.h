// One drive's queue of pending requests, as the schedulers rank it.
//
// Entries are kept in scan order, which is push order: every Push stamps the
// entry with the next sequence number (QueuedRequest::seq), and the LOOK
// family and the scheduler tie-breaks read entries() front to back.
//
// A queue built for a scheduler that walks a cylinder index (the SATF
// family, Scheduler::index_window()) also keeps one: a Key per candidate of
// the first `window` entries, the ones a pick may choose, sorted by
// (cylinder, seq, candidate), so the pick can walk outward from the head's
// cylinder and stop once every key beyond is provably too far. The index
// costs upkeep on every push and take, which a shallow queue does not earn
// back, so it exists only while the window holds kIndexDepth entries or
// more: it is built when a push fills the window to that depth and dropped
// when a take empties it below half of it. Without an index a pick scans
// entries() instead.
//
// Positions are derived at push time from the drive's layout. The queue
// keeps one stamp for all of them: the layout they came from and its remap
// count. SyncTo re-derives every position and rebuilds the index when the
// stamp is stale (a latent-bad-sector remap, or a spare promoted into the
// slot); a scheduler ranks only a synced queue.
//
// Taking the front only advances `head_` past a moved-from slot; the dead
// prefix is compacted away once it reaches a sixteenth of the vector, so a
// front pop costs amortized O(1). Taking from the middle moves the entries
// behind it. Each key is inserted and erased with a binary search and one
// move of the key array; there is no per-key allocation.
#ifndef MIMDRAID_SRC_SCHED_DRIVE_QUEUE_H_
#define MIMDRAID_SRC_SCHED_DRIVE_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/layout.h"
#include "src/sched/queued_request.h"

namespace mimdraid {

class DriveQueue {
 public:
  // One indexed candidate, 16 bytes. It carries what the SATF family's cost
  // bound reads (position, size, direction), so a walk can rule a candidate
  // out without finding its entry.
  struct Key {
    SectorPos pos;
    // The entry's push sequence number.
    uint32_t seq = 0;
    // The entry's size, saturated at 65535 sectors: a smaller size only
    // lowers the cost bound, so the bound stays valid.
    uint16_t sectors = 0;
    // Index into the entry's candidates.
    uint16_t candidate : 15 = 0;
    uint16_t is_write : 1 = 0;

    uint32_t cylinder() const { return pos.cylinder; }
    friend bool operator<(const Key& a, const Key& b) {
      if (a.pos.cylinder != b.pos.cylinder) {
        return a.pos.cylinder < b.pos.cylinder;
      }
      if (a.seq != b.seq) {
        return a.seq < b.seq;
      }
      return a.candidate < b.candidate;
    }
  };
  // Every candidate in a deep queue's window has one; a wider key costs peak
  // memory in proportion.
  static_assert(sizeof(Key) == 16);

  // Window of a queue whose index covers every entry.
  static constexpr size_t kWholeQueue = SIZE_MAX;
  // Entries the window must hold before the queue indexes it. Below this
  // depth a linear scan of the entries is cheaper than the index's upkeep
  // and walk (BM_DriveQueueCycle: see DESIGN.md section 5).
  static constexpr size_t kIndexDepth = 16;

  // `window` is the number of leading entries the index covers
  // (kWholeQueue: all of them); 0 keeps no index.
  explicit DriveQueue(size_t window = 0) : window_(window) {}

  // The key of `entry`'s candidate `c`, from its cached position.
  static Key KeyOf(const QueuedRequest& entry, uint32_t c) {
    return Key{.pos = entry.candidates[c].pos,
               .seq = entry.seq,
               .sectors = static_cast<uint16_t>(
                   std::min<uint32_t>(entry.sectors, UINT16_MAX)),
               .candidate = static_cast<uint16_t>(c),
               .is_write = entry.op == DiskOp::kWrite};
  }

  // Live entries in scan order (ascending seq).
  std::span<const QueuedRequest> entries() const {
    return std::span<const QueuedRequest>(slots_).subspan(head_);
  }
  size_t window() const { return window_; }
  // True while the index is kept (see the file comment).
  bool indexed() const { return indexed_; }
  // Every candidate of the first window() entries, ascending (cylinder, seq,
  // candidate), while indexed(); empty otherwise.
  std::span<const Key> keys() const { return keys_; }
  size_t size() const { return slots_.size() - head_; }
  bool empty() const { return head_ == slots_.size(); }

  // Syncs to `layout`, stamps `entry` with the next seq, derives its
  // candidates' positions and appends it.
  void Push(QueuedRequest entry, const DiskLayout& layout);
  // Removes and returns entries()[i].
  QueuedRequest Take(size_t i);
  // Removes and returns every live entry, in scan order.
  std::vector<QueuedRequest> Drain();

  // True when every position was derived from `layout` at its current remap
  // count. The count only grows, so an equal count means no sector moved.
  bool SyncedTo(const DiskLayout& layout) const {
    return layout_ == &layout && remaps_ == layout.num_remapped_sectors();
  }
  // Re-derives every position from `layout` and rebuilds the index, unless
  // the queue is already synced to it.
  void SyncTo(const DiskLayout& layout);

  // Position in entries() of the live entry pushed as `seq`.
  size_t IndexOf(uint32_t seq) const;

 private:
  // Entries in the window.
  size_t windowed() const { return std::min(size(), window_); }
  // Inserts or erases `entry`'s keys.
  void Index(const QueuedRequest& entry);
  void Unindex(const QueuedRequest& entry);
  // Rebuilds the index from the window's entries.
  void Reindex();

  std::vector<QueuedRequest> slots_;
  size_t head_ = 0;
  size_t window_;
  bool indexed_ = false;
  std::vector<Key> keys_;
  uint32_t next_seq_ = 0;
  const DiskLayout* layout_ = nullptr;
  size_t remaps_ = 0;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_DRIVE_QUEUE_H_
