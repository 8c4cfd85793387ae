package obs

import (
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
)

// engineCounters is the process-wide counter set of the reasoning stack,
// published as the expvar map "vadalog".
type engineCounters[C any] struct {
	// Finished engine runs, bumped on every run completion (vadalog): all of
	// them, by non-ok Outcome.Status, and their rounds and derived facts.
	Runs     C `expvar:"runs"`
	Canceled C `expvar:"runs_canceled"`
	TimedOut C `expvar:"runs_timed_out"`
	Errored  C `expvar:"runs_errored"`
	Rounds   C `expvar:"rounds"`
	Derived  C `expvar:"facts_derived"`

	// Bumped by fault.RetryPolicy: individual retry attempts, and the
	// outcomes of retry sequences (an operation that eventually succeeded
	// after retrying, or gave up).
	Retries        C `expvar:"retries"`
	RetrySucceeded C `expvar:"retries_succeeded"`
	RetryExhausted C `expvar:"retries_exhausted"`

	// Bumped by the cost-based query path (metalog.Prepared): evaluations
	// that executed a planned program vs the written-order one, prepare-time
	// fallbacks to unplanned (no statistics, unsupported program shape, or a
	// failed planning pass), and the running estimated-vs-actual row totals
	// of planned runs — the drift between the two is the cost model's
	// calibration signal.
	PlannedRuns    C `expvar:"planned_runs"`
	UnplannedRuns  C `expvar:"unplanned_runs"`
	PlanFallbacks  C `expvar:"plan_fallbacks"`
	PlanEstRows    C `expvar:"plan_est_rows"`
	PlanActualRows C `expvar:"plan_actual_rows"`
}

// Engine is the live engine counter set; increment sites Add to its fields.
var Engine engineCounters[Counter]

var _ = Publish("vadalog", &Engine)

// CounterSnapshot is a point-in-time copy of the engine counters.
type CounterSnapshot = engineCounters[int64]

// Counters returns the current process-wide engine counter values.
func Counters() CounterSnapshot { return Snapshot[CounterSnapshot](&Engine) }

// DebugHandler serves /debug/vars (expvar, with every published counter set)
// and /debug/pprof: the routes the expvar and net/http/pprof imports register
// on the default mux.
func DebugHandler() http.Handler { return http.DefaultServeMux }

// ServeDebug starts an HTTP server on addr serving DebugHandler. It returns
// once the listener is bound; the server runs until the process exits. The
// CLIs wire this to their -pprof flag.
func ServeDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go http.Serve(ln, DebugHandler()) //nolint:errcheck // best-effort debug endpoint
	return nil
}
