package service

import (
	"context"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/core"
	"distmsm/internal/curve"
)

// This file is the service's resident-table accounting: every
// fixed-base precomputation the service keeps across requests — a
// circuit's proving-key tables, a /v1/msm shard's base tables — is one
// cachedTables on one list, charged to the one memory budget and
// evicted by the one LRU.

// cachedTables is the budget and LRU header of one resident table set.
// Guarded by Service.mu; the tables themselves are immutable, so a
// request that grabbed them survives a concurrent eviction.
type cachedTables struct {
	mem     int64
	lastUse time.Time
	// shard marks /v1/msm shard tables, the only kind the unexported
	// shard-cache cap may evict.
	shard bool
	// drop detaches the tables from their owner (the circuit's bases
	// pointer, the shard map entry) so later requests see a miss.
	drop func()
}

// Shard tables are bounded even when Config.MemoryBudget is 0 (its
// default): unlike circuits, which an operator registers, shard ranges
// are named by whoever dispatches, and a MaxMSMShard-point range would
// precompute to ~160 MB. A range whose tables exceed maxShardTableBytes
// is served uncached; resident shard tables beyond maxShardCacheBytes
// evict the coldest shard tables (never a circuit's). The per-table cap
// also bounds the one uninterruptible step of a shard request, the
// first-sight table build.
const (
	maxShardTableBytes = 16 << 20
	maxShardCacheBytes = 128 << 20
)

// admitTablesLocked charges a freshly built table set to the memory
// budget and enters it into the LRU, evicting colder tables to make
// room; false means it does not fit even then and stays uncached.
func (s *Service) admitTablesLocked(t *cachedTables) bool {
	if t.shard {
		resident := t.mem
		for _, o := range s.tables {
			if o.shard {
				resident += o.mem
			}
		}
		if resident > maxShardCacheBytes {
			s.evictTablesLocked(resident-maxShardCacheBytes, true)
		}
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse+t.mem > s.cfg.MemoryBudget {
		s.evictTablesLocked(s.memInUse+t.mem-s.cfg.MemoryBudget, false)
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse+t.mem > s.cfg.MemoryBudget {
		return false
	}
	t.lastUse = time.Now()
	s.tables = append(s.tables, t)
	s.memInUse += t.mem
	s.stats.MemoryInUse = s.memInUse
	s.stats.BaseCacheBytes += t.mem
	s.metrics.observeBaseSize(s.stats.BaseCacheBytes, false)
	return true
}

// evictTablesLocked drops resident tables, coldest first, until need
// bytes are freed or no candidates remain (shardOnly restricts the
// candidates to /v1/msm shard tables). Evicted circuits stay registered
// and fall back to raw key columns, evicted shard ranges rebuild on
// their next sight; in-flight work keeps the tables it already grabbed.
func (s *Service) evictTablesLocked(need int64, shardOnly bool) {
	for need > 0 {
		victim := -1
		for i, t := range s.tables {
			if shardOnly && !t.shard {
				continue
			}
			if victim < 0 || t.lastUse.Before(s.tables[victim].lastUse) {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		t := s.tables[victim]
		s.tables = append(s.tables[:victim], s.tables[victim+1:]...)
		t.drop()
		need -= t.mem
		s.memInUse -= t.mem
		s.stats.MemoryInUse = s.memInUse
		s.stats.BaseCacheBytes -= t.mem
		s.stats.BaseCacheEvictions++
		s.metrics.observeBaseSize(s.stats.BaseCacheBytes, true)
	}
}

// shardKey names one /v1/msm base range. The scalar width is part of
// the name because a table's window count covers exactly that width.
type shardKey struct {
	curve      string
	pointSeed  uint64
	lo, hi     int
	scalarBits int
}

// shardBases is one range's resident bases: the derived points and the
// fixed-base tables over them. Everything but the embedded header is
// written once by the request that built it, before ready is closed.
type shardBases struct {
	cachedTables
	ready  chan struct{} // closed when the build finished, either way
	err    error         // the build's error; points/fb are nil then
	points []curve.PointAffine
	fb     *core.FixedBase // nil when the built tables were not admitted
}

// shardTables returns the resident bases of req's range over wc (the
// shard's width-widened curve), building them on first sight. Requests
// for the same range that arrive together — a shard's real and
// challenge instances can — share one build. A nil result means the
// range is served uncached: the cache is disabled, or the tables exceed
// the per-table cap or do not fit the budget.
func (s *Service) shardTables(ctx context.Context, wc *curve.Curve, req cluster.MSMDispatchRequest) (*shardBases, error) {
	e, hit, err := s.lookupShardTables(ctx, wc, req)
	s.mu.Lock()
	if hit {
		e.lastUse = time.Now()
		s.stats.BaseCacheHits++
	} else {
		s.stats.BaseCacheMisses++
	}
	s.mu.Unlock()
	s.metrics.observeBaseLookup(hit)
	return e, err
}

// lookupShardTables is shardTables without the accounting. hit reports
// tables that were already resident (or being built by another request);
// the request that builds a range's tables is that range's one miss.
func (s *Service) lookupShardTables(ctx context.Context, wc *curve.Curve, req cluster.MSMDispatchRequest) (e *shardBases, hit bool, err error) {
	if s.cfg.DisableBaseCache {
		return nil, false, nil
	}
	// No GLV fold and no reduction mod r: SamplePoints clears no
	// cofactor, so the bases may lie outside the prime-order subgroup
	// (where the endomorphism relation does not hold), and the outsourced
	// check's challenge scalars are integers, not residues.
	opts := core.Options{WindowSize: s.cfg.WindowSize}
	n := req.RangeHi - req.RangeLo
	mem, err := core.FixedBaseBytes(wc, n, opts)
	if err != nil || mem > maxShardTableBytes {
		return nil, false, nil
	}
	key := shardKey{wc.Name, req.PointSeed, req.RangeLo, req.RangeHi, req.ScalarBits}
	s.mu.Lock()
	e, found := s.shards[key]
	if !found {
		// Jobs hold budget the LRU cannot reclaim: do not build tables
		// that could not be admitted even with every other table evicted.
		if s.cfg.MemoryBudget > 0 && s.memInUse-s.stats.BaseCacheBytes+mem > s.cfg.MemoryBudget {
			s.mu.Unlock()
			return nil, false, nil
		}
		e = &shardBases{
			cachedTables: cachedTables{shard: true, drop: func() { delete(s.shards, key) }},
			ready:        make(chan struct{}),
		}
		s.shards[key] = e
	}
	s.mu.Unlock()
	if found {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.fb == nil {
			return nil, false, e.err
		}
		return e, true, nil
	}

	// First sight: derive and precompute outside s.mu. The sample chain
	// only walks forward, so the range is cut off its prefix (copied, so
	// the resident entry does not pin the prefix's headers).
	points := append([]curve.PointAffine(nil), wc.SamplePoints(req.RangeHi, req.PointSeed)[req.RangeLo:req.RangeHi]...)
	fb, err := core.NewFixedBase(wc, points, opts)
	s.mu.Lock()
	if err == nil {
		e.mem = fb.MemoryBytes()
		if s.admitTablesLocked(&e.cachedTables) {
			e.points, e.fb = points, fb
		}
	}
	if e.fb == nil {
		delete(s.shards, key)
	}
	e.err = err
	s.mu.Unlock()
	close(e.ready)
	if e.fb == nil {
		return nil, false, err
	}
	return e, false, nil
}
