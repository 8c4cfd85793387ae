package metalog

import (
	"context"
	"time"

	"repro/internal/pg"
	"repro/internal/vadalog"
)

// ReasonResult is the outcome of running a MetaLog program over a property
// graph end to end: translation, loading, reasoning and flushing. The phase
// durations reproduce the breakdown discussed in Section 6 of the paper
// (loading and flushing vs. the reasoning task proper).
type ReasonResult struct {
	Translation *Translation
	Catalog     *Catalog
	DB          *vadalog.Database
	// Run is the underlying engine result; with vadalog.Options.Provenance
	// set, Run.Explain reconstructs proof trees for derived facts.
	Run         *vadalog.Result
	Materialize MaterializeStats
	RunStats    vadalog.RunStats

	LoadDuration   time.Duration // ExtractFacts (the paper's "loading")
	ReasonDuration time.Duration // the Vadalog fixpoint
	FlushDuration  time.Duration // Materialize (the paper's "flushing")
}

// Reason compiles and runs a MetaLog program over the graph, materializing
// the derived nodes and edges back into it. The graph's own labels and
// properties seed the catalog; the program may extend it with intensional
// labels. The options — including Options.Workers, which selects the
// parallel fixpoint engine — pass through to the Vadalog run unchanged.
//
// The embedded Vadalog run honors ctx and vadalog.Options.Timeout (typed
// vadalog.ErrCanceled / ErrTimeout), and the loading and flushing phases
// check ctx at their boundaries, so a MetaLog-level run inherits the engine's
// operational controls end to end.
func Reason(ctx context.Context, prog *Program, g *pg.Graph, opts vadalog.Options) (*ReasonResult, error) {
	cat := FromGraph(g)
	tr, err := Translate(prog, cat)
	if err != nil {
		return nil, err
	}

	loadStart := time.Now()
	db, err := ExtractFacts(g, cat)
	if err != nil {
		return nil, err
	}
	loadDur := time.Since(loadStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	reasonStart := time.Now()
	res, err := vadalog.RunInPlaceCtx(ctx, tr.Program, db, opts)
	if err != nil {
		return nil, err
	}
	reasonDur := time.Since(reasonStart)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	flushStart := time.Now()
	mst, err := Materialize(res.DB, tr, cat, g)
	if err != nil {
		return nil, err
	}
	flushDur := time.Since(flushStart)

	return &ReasonResult{
		Translation:    tr,
		Catalog:        cat,
		DB:             res.DB,
		Run:            res,
		Materialize:    mst,
		RunStats:       res.Stats,
		LoadDuration:   loadDur,
		ReasonDuration: reasonDur,
		FlushDuration:  flushDur,
	}, nil
}

// ctxErr maps a done context onto the engine's typed interruption errors, so
// cancellation between phases surfaces the same way as cancellation inside
// the fixpoint.
func ctxErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return vadalog.ErrTimeout
	default:
		return vadalog.ErrCanceled
	}
}
