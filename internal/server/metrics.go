package server

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Process-wide serving counters, in the same style as the engine counters of
// internal/obs: static program locations, published once under the "kgserve"
// expvar map. Tests read them through CountersSnapshot deltas so multiple
// server instances per process (the test suites) stay unambiguous.
var (
	mRequests        atomic.Int64 // requests dispatched to any endpoint
	mErrors          atomic.Int64 // requests answered with a typed error
	mRejected        atomic.Int64 // requests shed by admission control (429)
	mHits            atomic.Int64 // query cache hits
	mMisses          atomic.Int64 // query cache misses (evaluations)
	mQueryReextracts atomic.Int64 // evaluations the shared database refused (per-request extraction)
	mReloads         atomic.Int64 // successful snapshot swaps
	mReloadErr       atomic.Int64 // failed reloads (snapshot kept)

	mMutates        atomic.Int64 // applied mutation batches
	mMutateErr      atomic.Int64 // failed batches (snapshot kept)
	mMutateFallback atomic.Int64 // batches that forced a full fact re-extract
	mCompacts       atomic.Int64 // overlay-to-frozen compactions
	mCompactErr     atomic.Int64 // failed compactions (overlay kept serving)

	mPlanHits      atomic.Int64 // plan cache hits
	mPlanMisses    atomic.Int64 // plan cache misses (prepare runs)
	mStatsComputes atomic.Int64 // graph-stats walks (once per generation)

	mWALAppends       atomic.Int64 // batches logged to the write-ahead log
	mWALAppendErr     atomic.Int64 // failed appends (batch rejected)
	mWALCheckpoints   atomic.Int64 // WAL truncation checkpoints stamped
	mWALCheckpointErr atomic.Int64 // failed checkpoints (log kept, replay stays idempotent)
	mWALReplayed      atomic.Int64 // batches replayed during crash recovery

	metricsOnce sync.Once
)

// CounterSnapshot is a point-in-time copy of the serving counters.
type CounterSnapshot struct {
	Requests, Errors, Rejected int64
	CacheHits, CacheMisses     int64
	QueryReextracts            int64
	Reloads, ReloadErrors      int64

	Mutates, MutateErrors, MutateFallbacks int64
	Compactions, CompactErrors             int64

	PlanCacheHits, PlanCacheMisses int64
	StatsComputes                  int64

	WALAppends, WALAppendErrors         int64
	WALCheckpoints, WALCheckpointErrors int64
	WALReplayed                         int64
}

// CountersSnapshot returns the current process-wide serving counters.
func CountersSnapshot() CounterSnapshot {
	return CounterSnapshot{
		Requests:        mRequests.Load(),
		Errors:          mErrors.Load(),
		Rejected:        mRejected.Load(),
		CacheHits:       mHits.Load(),
		CacheMisses:     mMisses.Load(),
		QueryReextracts: mQueryReextracts.Load(),
		Reloads:         mReloads.Load(),
		ReloadErrors:    mReloadErr.Load(),

		Mutates:         mMutates.Load(),
		MutateErrors:    mMutateErr.Load(),
		MutateFallbacks: mMutateFallback.Load(),
		Compactions:     mCompacts.Load(),
		CompactErrors:   mCompactErr.Load(),

		PlanCacheHits:   mPlanHits.Load(),
		PlanCacheMisses: mPlanMisses.Load(),
		StatsComputes:   mStatsComputes.Load(),

		WALAppends:          mWALAppends.Load(),
		WALAppendErrors:     mWALAppendErr.Load(),
		WALCheckpoints:      mWALCheckpoints.Load(),
		WALCheckpointErrors: mWALCheckpointErr.Load(),
		WALReplayed:         mWALReplayed.Load(),
	}
}

// registerExpvar publishes the serving counters as the expvar map "kgserve"
// (served at /debug/vars). Safe to call more than once.
func registerExpvar() {
	metricsOnce.Do(func() {
		m := new(expvar.Map)
		m.Set("requests", expvar.Func(func() any { return mRequests.Load() }))
		m.Set("errors", expvar.Func(func() any { return mErrors.Load() }))
		m.Set("rejected", expvar.Func(func() any { return mRejected.Load() }))
		m.Set("cache_hits", expvar.Func(func() any { return mHits.Load() }))
		m.Set("cache_misses", expvar.Func(func() any { return mMisses.Load() }))
		m.Set("query_reextracts", expvar.Func(func() any { return mQueryReextracts.Load() }))
		m.Set("reloads", expvar.Func(func() any { return mReloads.Load() }))
		m.Set("reload_errors", expvar.Func(func() any { return mReloadErr.Load() }))
		m.Set("mutates", expvar.Func(func() any { return mMutates.Load() }))
		m.Set("mutate_errors", expvar.Func(func() any { return mMutateErr.Load() }))
		m.Set("mutate_fallbacks", expvar.Func(func() any { return mMutateFallback.Load() }))
		m.Set("compactions", expvar.Func(func() any { return mCompacts.Load() }))
		m.Set("compact_errors", expvar.Func(func() any { return mCompactErr.Load() }))
		m.Set("plan_cache_hits", expvar.Func(func() any { return mPlanHits.Load() }))
		m.Set("plan_cache_misses", expvar.Func(func() any { return mPlanMisses.Load() }))
		m.Set("stats_computes", expvar.Func(func() any { return mStatsComputes.Load() }))
		m.Set("wal_appends", expvar.Func(func() any { return mWALAppends.Load() }))
		m.Set("wal_append_errors", expvar.Func(func() any { return mWALAppendErr.Load() }))
		m.Set("wal_checkpoints", expvar.Func(func() any { return mWALCheckpoints.Load() }))
		m.Set("wal_checkpoint_errors", expvar.Func(func() any { return mWALCheckpointErr.Load() }))
		m.Set("wal_replayed", expvar.Func(func() any { return mWALReplayed.Load() }))
		expvar.Publish("kgserve", m)
	})
}
