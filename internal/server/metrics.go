package server

import "repro/internal/obs"

// counterSet is the process-wide serving counter set (see obs.Publish),
// published as the expvar map "kgserve". Tests read it through
// CountersSnapshot deltas so multiple server instances per process (the test
// suites) stay unambiguous.
type counterSet[C any] struct {
	Requests        C `expvar:"requests"`         // requests dispatched to any endpoint
	Errors          C `expvar:"errors"`           // requests answered with a typed error
	Rejected        C `expvar:"rejected"`         // requests shed by admission control (429)
	CacheHits       C `expvar:"cache_hits"`       // query cache hits
	CacheMisses     C `expvar:"cache_misses"`     // query cache misses (evaluations)
	QueryReextracts C `expvar:"query_reextracts"` // evaluations the shared database refused (per-request extraction)
	Reloads         C `expvar:"reloads"`          // successful snapshot swaps
	ReloadErrors    C `expvar:"reload_errors"`    // failed reloads (snapshot kept)

	Mutates         C `expvar:"mutates"`          // applied mutation batches
	MutateErrors    C `expvar:"mutate_errors"`    // failed batches (snapshot kept)
	MutateFallbacks C `expvar:"mutate_fallbacks"` // batches that forced a full fact re-extract
	Compactions     C `expvar:"compactions"`      // overlay-to-frozen compactions
	CompactErrors   C `expvar:"compact_errors"`   // failed compactions (overlay kept serving)

	PlanCacheHits   C `expvar:"plan_cache_hits"`   // plan cache hits
	PlanCacheMisses C `expvar:"plan_cache_misses"` // plan cache misses (prepare runs)
	StatsComputes   C `expvar:"stats_computes"`    // graph-stats walks (once per generation)

	WALAppends          C `expvar:"wal_appends"`           // batches logged to the write-ahead log
	WALAppendErrors     C `expvar:"wal_append_errors"`     // failed appends (batch rejected)
	WALCheckpoints      C `expvar:"wal_checkpoints"`       // WAL truncation checkpoints stamped
	WALCheckpointErrors C `expvar:"wal_checkpoint_errors"` // failed checkpoints (log kept, replay stays idempotent)
	WALReplayed         C `expvar:"wal_replayed"`          // batches replayed during crash recovery
}

// counters is the live set the increment sites Add to; vars is its expvar
// map, which also holds the per-endpoint latency aggregates
// ("latency_<endpoint>", registered with the routes).
var (
	counters counterSet[obs.Counter]
	vars     = obs.Publish("kgserve", &counters)
)

// CounterSnapshot is a point-in-time copy of the serving counters.
type CounterSnapshot = counterSet[int64]

// CountersSnapshot returns the current process-wide serving counters.
func CountersSnapshot() CounterSnapshot { return obs.Snapshot[CounterSnapshot](&counters) }
