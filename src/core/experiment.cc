#include "src/core/experiment.h"

#include <memory>

#include "src/array/placement.h"
#include "src/util/check.h"

namespace mimdraid {

ModelDiskParams ModelParamsForDataset(const DiskGeometry& geometry,
                                      const SeekProfile& profile,
                                      uint64_t dataset_sectors) {
  // Span the dataset would cover on a single unreplicated disk.
  DiskLayout layout(&geometry);
  SrDiskPlacement placement(&layout, /*dr=*/1);
  const uint64_t capped =
      std::min(dataset_sectors, placement.capacity_sectors());
  ModelDiskParams p;
  const uint32_t span = placement.CylinderSpan(capped);
  p.max_seek_us = profile.SeekUs(std::max(span, 1u), /*is_write=*/false);
  p.rotation_us = static_cast<double>(geometry.RotationUs().us());
  return p;
}

RunResult RunTraceOnArray(MimdRaid& array, const Trace& trace,
                          const TracePlayerOptions& options) {
  TracePlayer player(&array.sim(), &trace, array.Submitter(), options);
  return player.Run();
}

RunResult RunClosedLoopOnArray(MimdRaid& array, ClosedLoopOptions options) {
  if (options.dataset_sectors == 0) {
    options.dataset_sectors = array.layout().dataset_sectors();
  }
  ClosedLoopDriver driver(&array.sim(), array.Submitter(), options);
  return driver.Run();
}

RunResult RunTraceWithCache(MimdRaid& array, const Trace& trace,
                            uint64_t cache_bytes,
                            const TracePlayerOptions& options) {
  constexpr SimDuration kHitLatencyUs(50);
  auto cache = std::make_shared<LruBlockCache>(cache_bytes,
                                               /*block_sectors=*/16);
  Simulator* sim = &array.sim();
  SubmitFn backend = array.Submitter();
  SubmitFn cached = [sim, cache, backend](
                        DiskOp op, uint64_t lba, uint32_t sectors,
                        IoDoneFn done) {
    if (op == DiskOp::kRead && cache->Lookup(lba, sectors)) {
      sim->ScheduleAfter(kHitLatencyUs,
                         [sim, done = std::move(done)]() {
                           IoResult hit;
                           hit.completion_us = sim->Now();
                           done(hit);
                         });
      return;
    }
    backend(op, lba, sectors,
            [cache, lba, sectors, done = std::move(done)](const IoResult& r) {
              // Only data that actually arrived populates the cache.
              if (r.status == IoStatus::kOk) {
                cache->Insert(lba, sectors);
              }
              done(r);
            });
  };
  TracePlayer player(sim, &trace, std::move(cached), options);
  return player.Run();
}

}  // namespace mimdraid
