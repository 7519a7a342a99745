#include "src/sched/drive_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

void DriveQueue::Push(QueuedRequest entry, const DiskLayout& layout) {
  MIMDRAID_CHECK_LE(entry.candidates.size(), size_t{1} << 15);
  SyncTo(layout);
  if (next_seq_ == std::numeric_limits<uint32_t>::max()) {
    // Out of sequence numbers: number the live entries afresh, in order.
    next_seq_ = 0;
    for (QueuedRequest& live : std::span(slots_).subspan(head_)) {
      live.seq = next_seq_++;
    }
    if (indexed_) {
      Reindex();
    }
  }
  entry.seq = next_seq_++;
  for (QueueCandidate& c : entry.candidates) {
    c.pos = layout.PositionOf(c.lba.value());
  }
  slots_.push_back(std::move(entry));
  if (indexed_) {
    if (size() <= window_) {
      Index(slots_.back());
    }
  } else if (windowed() >= kIndexDepth) {
    indexed_ = true;
    Reindex();
  }
}

QueuedRequest DriveQueue::Take(size_t i) {
  MIMDRAID_CHECK_LT(i, size());
  QueuedRequest entry = std::move(slots_[head_ + i]);
  if (indexed_ && i < window_) {
    Unindex(entry);
    // The first entry past the window moves into it.
    if (size() > window_) {
      Index(slots_[head_ + window_]);
    }
  }
  if (i > 0) {
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(head_ + i));
  } else if (++head_ * 16 >= slots_.size()) {
    slots_.erase(slots_.begin(),
                 slots_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  if (indexed_ && windowed() < kIndexDepth / 2) {
    indexed_ = false;
    keys_.clear();
  }
  return entry;
}

std::vector<QueuedRequest> DriveQueue::Drain() {
  std::vector<QueuedRequest> drained;
  drained.swap(slots_);
  drained.erase(drained.begin(),
                drained.begin() + static_cast<ptrdiff_t>(head_));
  head_ = 0;
  indexed_ = false;
  keys_.clear();
  return drained;
}

void DriveQueue::SyncTo(const DiskLayout& layout) {
  if (SyncedTo(layout)) {
    return;
  }
  layout_ = &layout;
  remaps_ = layout.num_remapped_sectors();
  for (QueuedRequest& entry : std::span(slots_).subspan(head_)) {
    for (QueueCandidate& c : entry.candidates) {
      c.pos = layout.PositionOf(c.lba.value());
    }
  }
  if (indexed_) {
    Reindex();
  }
}

size_t DriveQueue::IndexOf(uint32_t seq) const {
  const std::span<const QueuedRequest> live = entries();
  const auto it = std::lower_bound(
      live.begin(), live.end(), seq,
      [](const QueuedRequest& e, uint32_t s) { return e.seq < s; });
  MIMDRAID_CHECK(it != live.end() && it->seq == seq) << "seq " << seq;
  return static_cast<size_t>(it - live.begin());
}

void DriveQueue::Index(const QueuedRequest& entry) {
  for (uint32_t c = 0; c < entry.candidates.size(); ++c) {
    const Key key = KeyOf(entry, c);
    keys_.insert(std::lower_bound(keys_.begin(), keys_.end(), key), key);
  }
}

void DriveQueue::Unindex(const QueuedRequest& entry) {
  for (uint32_t c = 0; c < entry.candidates.size(); ++c) {
    const Key key = KeyOf(entry, c);
    const auto at = std::lower_bound(keys_.begin(), keys_.end(), key);
    MIMDRAID_CHECK(at != keys_.end() && !(key < *at))
        << "entry " << entry.id << " candidate " << c << " is not indexed";
    keys_.erase(at);
  }
}

void DriveQueue::Reindex() {
  keys_.clear();
  for (const QueuedRequest& entry : entries().first(windowed())) {
    for (uint32_t c = 0; c < entry.candidates.size(); ++c) {
      keys_.push_back(KeyOf(entry, c));
    }
  }
  std::sort(keys_.begin(), keys_.end());
}

}  // namespace mimdraid
