package core

import (
	"runtime/metrics"

	"xqview/internal/obs"
)

// Round telemetry: each round appends one obs.RoundSample, assembled from
// what the pipeline already produces — the round's phase slots, per-view
// work and deep-union traffic from MaintStats, cache activity as a
// lifetime-counter diff across the round over every cache it touched, arena
// occupancy sampled just before the round transaction releases its arenas,
// the registry's version and reader counts, and a heap-object delta from
// runtime/metrics. The sample is the round's only record: appending it also
// folds it into the registry's per-round series (obs.RoundSeries.Append).
// All of it is gated on obs.Enabled() once at round start, so the disabled
// path pays one atomic load and allocates nothing.

// heapAllocObjects reads the runtime's cumulative heap-object allocation
// counter; the delta across a round is the live allocs-per-round signal
// xqtop shows next to the benchmark's allocs/op.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// record appends the round's RoundSample. Every sample carries the phase
// slots, which sum to TotalNS, and the batch sizes; an aborted round's
// sample adds what its rollback restored and stops there, a committed
// round's adds what the round did: per-view work, extent traffic, cache and
// arena activity, and the version it published.
func (r *round) record(aborted bool) {
	if !r.telemetry {
		return
	}
	s := obs.RoundSample{
		Aborted:    aborted,
		EvalNS:     r.eval.Nanoseconds(),
		CompactNS:  r.compactTime.Nanoseconds(),
		ValidateNS: r.validateTime.Nanoseconds(),
		SharedNS:   r.sharedTime.Nanoseconds(),
		PoolNS:     r.poolTime.Nanoseconds(),
		SourceNS:   r.sourceTime.Nanoseconds(),
		SnapshotNS: r.snapshotTime.Nanoseconds(),
		CommitNS:   r.commitTime.Nanoseconds(),
		RollbackNS: r.rollbackTime.Nanoseconds(),
		TotalNS:    r.clock.Sub(r.start).Nanoseconds(),
		Views:      int32(len(r.set.Views)),
		PrimsIn:    int32(len(r.orig)),
		PrimsOut:   int32(len(r.prims)),
	}
	if aborted {
		s.RollbackRestored = int32(r.restored)
		obs.Rounds.Append(s)
		return
	}
	s.ArenaBytes, s.ArenaChunks = r.arenaBytes, int32(r.arenaChunks)
	s.SharedGroups, s.SharedFanout = int32(r.sharedGroups), int32(r.sharedFanout)
	s.SharedHits = s.SharedFanout - s.SharedGroups
	for _, ms := range r.out {
		s.PropagateNS += ms.Propagate.Nanoseconds()
		s.ApplyNS += ms.Apply.Nanoseconds()
		s.Skipped += int32(ms.Skipped)
		s.DeltaRoots += int32(ms.DeltaRoots)
		s.Merged += int32(ms.Union.Merged)
		s.Inserted += int32(ms.Union.Inserted)
		s.Removed += int32(ms.Union.Removed)
		s.Modified += int32(ms.Union.Modified)
		s.ApplyBytes += ms.Union.Bytes
	}
	d := r.set.cacheStats().Sub(r.cacheBefore)
	s.CacheHits = int32(d.Hits)
	s.CacheMisses = int32(d.Misses)
	s.CacheFolds = int32(d.Folds)
	s.CacheEvicts = int32(d.Evictions)
	s.CacheEntries = int32(d.Entries)
	s.HeapAllocs = int64(heapAllocObjects() - r.heapBefore)
	if r.cand != nil {
		retired, readers := r.opt.Snapshots.occupancy()
		s.SnapEpoch = int64(r.cand.Seq)
		s.SnapRetired, s.SnapReaders = int32(retired), int32(readers)
	}
	obs.Rounds.Append(s)
}
