package metalog

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/vadalog"
)

// Prepared is a compiled query: the pattern parsed, translated and — when
// the statistics catalog admits it — planned once, to be run many times
// against databases extracted under the same catalog. This is the serving
// layer's plan-cache entry: after PrepareBody returns, a Prepared is
// immutable and safe for concurrent QueryDB calls (the engine never mutates
// the program, and clones the database unless opts.OwnInput is set).
type Prepared struct {
	vars []string
	cat  *Catalog

	// unplanned is the written-order translation; planned is the cost-based
	// transformation of it, nil when planning fell back entirely (the info
	// plan then names why).
	unplanned *vadalog.Program
	planned   *vadalog.Program
	info      *plan.Plan
	estRows   float64
}

// PlanLayout exports the catalog's column layouts in the planner's terms:
// node relations are (oid, props...), edge relations (oid, from, to,
// props...), properties in catalog order. The maps and slices are copies —
// later catalog growth does not reach a Layout already handed out.
func (c *Catalog) PlanLayout() plan.Layout {
	cp := c.Clone()
	return plan.Layout{NodeProps: cp.NodeProps, EdgeProps: cp.EdgeProps}
}

// ComputePlanStats builds the planner's statistics catalog for a graph view
// under its MetaLog catalog — the per-generation pass the serving layer runs
// at snapshot-build time (two scans of the view, see plan.ComputeStats).
func ComputePlanStats(g pg.View, cat *Catalog) *plan.Stats {
	return plan.ComputeStats(g, cat.PlanLayout())
}

// PrepareQuery parses a pattern and compiles it with PrepareBody.
func PrepareQuery(cat *Catalog, pattern string, st *plan.Stats) (*Prepared, error) {
	pat, err := ParsePattern(pattern)
	if err != nil {
		return nil, err
	}
	return PrepareBody(cat, pat.Body, st)
}

// PrepareBody translates and plans a parsed pattern against cat. Translation
// extends the catalog with the query-result layout (and any layouts the
// pattern introduces), so the Prepared works on a clone of its own: cat may
// be shared, and is left as it was. A nil stats catalog skips planning: the
// Prepared still works, reporting an unplanned Plan. Planning never fails a
// query: any planner fault or unsupported shape falls back to the
// written-order program, recorded in Plan().Fallback and the obs fallback
// counter.
func PrepareBody(cat *Catalog, body []BodyElem, st *plan.Stats) (*Prepared, error) {
	cat = cat.Clone()
	tr, vars, err := buildQueryProgram(body, cat)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		vars:      vars,
		cat:       cat,
		unplanned: tr.Program,
	}
	planned, info, perr := plan.Compile(tr.Program, st)
	if perr != nil {
		obs.Engine.PlanFallbacks.Add(1)
		p.info = plan.Unplanned("planning failed: " + perr.Error())
		return p, nil
	}
	p.info = info
	if info.Planned {
		p.planned = planned
		p.estRows = info.OutputEst(queryResultLabel)
	} else {
		obs.Engine.PlanFallbacks.Add(1)
	}
	return p, nil
}

// Plan returns the explain output of the prepare-time planning pass.
func (p *Prepared) Plan() *plan.Plan { return p.info }

// Planned reports whether QueryDB executes the cost-based transformation
// (true) or the written-order program (false).
func (p *Prepared) Planned() bool { return p.planned != nil }

// Vars returns the pattern's named variables, sorted — the result columns.
func (p *Prepared) Vars() []string { return p.vars }

// EstimatedRows is the planner's cardinality estimate for the result set;
// 0 when unplanned.
func (p *Prepared) EstimatedRows() float64 { return p.estRows }

// QueryDB evaluates the prepared pattern against a pre-extracted fact
// database (see ExtractFacts), running the planned program when one exists.
// Provenance runs always take the written-order program — proof trees are
// explained against the program as written. A database extracted under a
// narrower layout than the pattern needs is refused with ErrStaleDatabase; a
// label the database has no relation for is simply empty.
func (p *Prepared) QueryDB(ctx context.Context, db *vadalog.Database, opts vadalog.Options) ([]QueryRow, error) {
	for l := range p.cat.NodeProps {
		if r := db.Relation(l); r != nil && r.Arity != p.cat.NodeArity(l) {
			return nil, fmt.Errorf("node label %s: %w", l, ErrStaleDatabase)
		}
	}
	for l := range p.cat.EdgeProps {
		if r := db.Relation(l); r != nil && r.Arity != p.cat.EdgeArity(l) {
			return nil, fmt.Errorf("edge label %s: %w", l, ErrStaleDatabase)
		}
	}
	prog := p.planned
	planned := prog != nil && !opts.Provenance
	if !planned {
		prog = p.unplanned
	}
	res, err := vadalog.RunCtx(ctx, prog, db, opts)
	if err != nil {
		return nil, err
	}
	pos := map[string]int{}
	for i, prop := range p.cat.NodeProps[queryResultLabel] {
		pos[prop] = i + 1
	}
	var rows []QueryRow
	for _, f := range res.DB.SortedFacts(queryResultLabel) {
		row := QueryRow{}
		for _, v := range p.vars {
			if cell := f[pos[v]]; Present(cell) {
				row[v] = cell
			}
		}
		rows = append(rows, row)
	}
	if planned {
		obs.Engine.PlannedRuns.Add(1)
		obs.Engine.PlanEstRows.Add(int64(p.estRows))
		obs.Engine.PlanActualRows.Add(int64(len(rows)))
	} else {
		obs.Engine.UnplannedRuns.Add(1)
	}
	return rows, nil
}

// QueryView evaluates the prepared pattern against a graph view: the facts
// are extracted under the Prepared's own catalog, so every layout the pattern
// needs is there. It is the one-shot path (Query) and the fallback for a
// pattern QueryDB refuses on a shared database.
func (p *Prepared) QueryView(ctx context.Context, g pg.View, opts vadalog.Options) ([]QueryRow, error) {
	db, err := ExtractFacts(g, p.cat)
	if err != nil {
		return nil, err
	}
	// The database was extracted for this call alone; hand it over so the
	// engine skips its defensive clone.
	opts.OwnInput = true
	return p.QueryDB(ctx, db, opts)
}
