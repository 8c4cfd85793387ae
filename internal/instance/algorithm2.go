package instance

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

// Fault-injection sites of the materialization pipeline, one per phase of
// Algorithm 2, each probed at its phase's boundary.
var (
	siteLoad   = fault.Site("instance/load")
	siteViews  = fault.Site("instance/input-views")
	siteReason = fault.Site("instance/reason")
	siteFlush  = fault.Site("instance/flush")
)

// Source abstracts the data instance D of Algorithm 2: whatever target
// model it lives in, it can be loaded into the instance super-constructs.
// A load builds its instance aside; Materialize attaches it.
type Source interface {
	load(d *Dictionary, instanceOID int64) (*Loaded, error)
}

// PGSource is a property-graph data instance. The load phase only reads the
// graph, so any pg.View works — including a pg.Frozen snapshot, which makes
// the load side safe to share across concurrent materializations.
type PGSource struct{ Data pg.View }

func (s PGSource) load(d *Dictionary, instanceOID int64) (*Loaded, error) {
	return d.loadPG(s.Data, instanceOID)
}

// RelationalSource is a relational data instance (tables of the Figure 8
// schema).
type RelationalSource struct{ Inst *RelationalInstance }

func (s RelationalSource) load(d *Dictionary, instanceOID int64) (*Loaded, error) {
	return d.loadRelational(s.Inst, instanceOID)
}

// Report is a run of Algorithm 2 in figures: the phase breakdown Section 6
// discusses — loading the instance into the super-components and building
// the input views (Load), the reasoning task proper (Reason), flushing the
// derived components back (Flush) — the reasoning statistics, and what the
// flush derived. On the Bank of Italy KG the paper reports ~160 minutes of
// reasoning against ~15 minutes of loading plus flushing; the benchmarks
// reproduce that shape.
type Report struct {
	LoadDuration   time.Duration
	ReasonDuration time.Duration
	FlushDuration  time.Duration
	RunStats       vadalog.RunStats

	NewEntities, NewEdges, UpdatedProps int
}

// Result is the outcome of Algorithm 2: its Report and the run itself (the
// loaded and derived instance, Σ's catalog and translation, the fact base).
type Result struct {
	Report
	Loaded      *Loaded
	Catalog     *metalog.Catalog
	Translation *metalog.Translation
	DB          *vadalog.Database
	Derived     *Derived
}

// Materialize runs Algorithm 2: it loads the data instance D into the
// instance super-constructs (via the model's quasi-inverse mapping), builds
// the input views V_I^Σ, applies the intensional component Σ (translated to
// Vadalog by MTV), and flushes the derived facts back into the instance
// constructs via the output views V_O^Σ.
//
// Failure semantics (DESIGN.md §9). The instance is built aside and attached
// to the dictionary only once every phase succeeded, and every phase runs
// under a fault guard, so Materialize is atomic and crash-contained: on any
// error — including a panic anywhere in the pipeline, which surfaces as a
// *fault.PanicError — nothing is attached and the OID allocator is handed
// back, so the dictionary is exactly as it was before the call. The one
// deliberate exception: when opts.OnFault is vadalog.BestEffort and the
// reasoning fails partway, the strata that completed are a sound prefix of
// the saturation, so their facts are flushed and the instance attached, and
// the Result comes back alongside the *vadalog.PartialError describing what
// was salvaged. A flush failure always discards the instance, best effort or
// not.
func Materialize(d *Dictionary, src Source, sigma *metalog.Program, instanceOID int64, opts vadalog.Options) (*Result, error) {
	cat := CatalogFromSchema(d.Schema)
	tr, err := metalog.Translate(sigma, cat)
	if err != nil {
		return nil, fmt.Errorf("instance: translating Σ: %w", err)
	}

	mark := d.next
	fail := func(e error) (*Result, error) {
		d.next = mark
		return nil, e
	}

	loadStart := time.Now()
	var loaded *Loaded
	if err := fault.Guard("instance/load", func() error {
		if err := fault.Hit(siteLoad); err != nil {
			return err
		}
		var lerr error
		loaded, lerr = src.load(d, instanceOID)
		return lerr
	}); err != nil {
		return fail(fmt.Errorf("instance: loading D into super-components: %w", err))
	}
	var db *vadalog.Database
	if err := fault.Guard("instance/input-views", func() error {
		if err := fault.Hit(siteViews); err != nil {
			return err
		}
		var verr error
		db, verr = loaded.InputViews(cat)
		return verr
	}); err != nil {
		return fail(fmt.Errorf("instance: building input views: %w", err))
	}
	loadDur := time.Since(loadStart)

	// Reasoning works on the fact database, not the dictionary; its own
	// stratum and shard guards contain panics on worker goroutines. A
	// *vadalog.PartialError (BestEffort runs only) is not fatal here: the
	// completed strata are salvaged through the flush below.
	reasonStart := time.Now()
	var run *vadalog.Result
	gerr := fault.Guard("instance/reason", func() error {
		if err := fault.Hit(siteReason); err != nil {
			return err
		}
		var rerr error
		run, rerr = vadalog.RunInPlace(tr.Program, db, opts)
		return rerr
	})
	var salvaged *vadalog.PartialError
	if gerr != nil && !errors.As(gerr, &salvaged) {
		return fail(fmt.Errorf("instance: reasoning: %w", gerr))
	}
	reasonDur := time.Since(reasonStart)

	flushStart := time.Now()
	var derived *Derived
	if err := fault.Guard("instance/flush", func() error {
		if err := fault.Hit(siteFlush); err != nil {
			return err
		}
		var ferr error
		derived, ferr = loaded.Flush(run.DB, tr, cat)
		return ferr
	}); err != nil {
		return fail(fmt.Errorf("instance: flushing derived components: %w", err))
	}
	flushDur := time.Since(flushStart)

	d.attached = append(d.attached, loaded)
	res := &Result{
		Report: Report{
			LoadDuration:   loadDur,
			ReasonDuration: reasonDur,
			FlushDuration:  flushDur,
			RunStats:       run.Stats,
			NewEntities:    len(derived.NewEntities),
			NewEdges:       len(derived.NewEdges),
			UpdatedProps:   derived.UpdatedProps,
		},
		Loaded:      loaded,
		Catalog:     cat,
		Translation: tr,
		DB:          run.DB,
		Derived:     derived,
	}
	if salvaged != nil {
		return res, salvaged
	}
	return res, nil
}

// Component is one named intensional component: a MetaLog program Σ.
type Component struct {
	Name  string
	Sigma *metalog.Program
}

// MaterializeStaged runs Algorithm 2 once per component, in order, against
// the graph stage reads, and returns each step's Report; the step's rows and
// fact database are dropped before the next one runs. Each step gets a fresh
// dictionary (instanceOID+i), so instance constructs do not accumulate
// across steps — the staging-area flush of Section 6 — and its derived
// components are applied to stage before the next step loads it, so later
// components read what earlier ones derived. The caller owns the overlay and
// reads the staged graph from it (overlay.New(g.Freeze()) stages over a
// graph in hand). Materialize runs one component over any Source and writes
// nothing back.
//
// Every component is first checked against the schema, before any step runs:
// the intensional language "should refer to the schema constructs" (§1), so a
// program naming a label or property the schema does not declare is refused.
//
// Under vadalog.BestEffort a step that fails mid-reasoning with a
// *vadalog.PartialError is kept and applied, and the steps so far come back
// alongside the wrapped error; later components do not run, since they must
// not read an unsaturated prefix. Every other error returns nil steps; an
// overlay the failed application wrote into may hold part of that step.
func MaterializeStaged(schema *supermodel.Schema, stage *overlay.Overlay, comps []Component, instanceOID int64, opts vadalog.Options) ([]Report, error) {
	for _, c := range comps {
		if err := checkComponent(schema, c); err != nil {
			return nil, err
		}
	}
	var steps []Report
	for i, c := range comps {
		d, err := NewDictionary(schema)
		if err != nil {
			return nil, err
		}
		res, err := Materialize(d, PGSource{Data: stage}, c.Sigma, instanceOID+int64(i), opts)
		if err != nil {
			err = fmt.Errorf("instance: materializing %q: %w", c.Name, err)
			var pe *vadalog.PartialError
			if !errors.As(err, &pe) || res == nil {
				return nil, err
			}
		}
		if aerr := res.applyTo(stage); aerr != nil {
			return nil, fmt.Errorf("instance: applying %q: %w", c.Name, aerr)
		}
		steps = append(steps, res.Report)
		if err != nil {
			return steps, err
		}
	}
	return steps, nil
}

// checkComponent translates the component against the schema's catalog and
// refuses it if translation fails or introduces a construct the schema does
// not declare, naming the unknown constructs in sorted order.
func checkComponent(schema *supermodel.Schema, c Component) error {
	cat := CatalogFromSchema(schema)
	before := catalogConstructs(cat)
	if _, err := metalog.Translate(c.Sigma, cat); err != nil {
		return fmt.Errorf("instance: intensional component %q: %w", c.Name, err)
	}
	var unknown []string
	for k := range catalogConstructs(cat) {
		if !before[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("instance: intensional component %q references constructs outside the schema: %s",
			c.Name, strings.Join(unknown, ", "))
	}
	return nil
}

// catalogConstructs lists the catalog's constructs as "node L", "node L.p",
// "edge L" and "edge L.p" keys.
func catalogConstructs(cat *metalog.Catalog) map[string]bool {
	out := map[string]bool{}
	add := func(kind string, labels map[string][]string) {
		for l, props := range labels {
			out[kind+l] = true
			for _, p := range props {
				out[kind+l+"."+p] = true
			}
		}
	}
	add("node ", cat.NodeProps)
	add("edge ", cat.EdgeProps)
	return out
}

// writeOps translates the derived components into the overlay ops that
// write them back into the property graph the instance was loaded from, and
// hands them to emit in the order that fixes the OIDs they take: one
// add_node per derived entity, carrying its attributes and named by a batch
// handle, its I_SM_Node OID in decimal; one set_node_prop per attribute the
// flush changed on a loaded entity; one add_edge per derived edge. An update
// of an entity no source node backs (a relational row) has no node to land
// on and is dropped; a derived edge touching one is an error.
func (r *Result) writeOps(emit func(overlay.Op) error) error {
	l, dv := r.Loaded, r.Derived
	handle := func(ioid pg.OID) string { return strconv.FormatInt(int64(ioid), 10) }
	node := func(ioid pg.OID) (overlay.Ref, bool) {
		if len(dv.NewEntities) > 0 && ioid >= dv.NewEntities[0].IOID {
			return overlay.Ref{Name: handle(ioid)}, true
		}
		src := l.Entity(ioid).Source
		return overlay.Ref{ID: src}, src != 0
	}
	for _, ent := range dv.NewEntities {
		if err := emit(overlay.Op{Kind: overlay.OpAddNode, Name: handle(ent.IOID), Labels: []string{ent.Type}, Props: pg.PropMap(ent.Attrs)}); err != nil {
			return err
		}
	}
	for _, u := range dv.Updates {
		if ref, ok := node(u.Entity); ok {
			v, _ := l.Entity(u.Entity).Attrs.Get(u.Attr)
			if err := emit(overlay.Op{Kind: overlay.OpSetNodeProp, Node: ref, Key: u.Attr, Value: v}); err != nil {
				return err
			}
		}
	}
	for _, de := range dv.NewEdges {
		from, ok1 := node(de.From)
		to, ok2 := node(de.To)
		if !ok1 || !ok2 {
			return fmt.Errorf("instance: derived edge %s endpoints not in target graph", de.Type)
		}
		var props pg.Props // most derived edges have no attributes: no map for them
		if len(de.Attrs) > 0 {
			props = pg.PropMap(de.Attrs)
		}
		if err := emit(overlay.Op{Kind: overlay.OpAddEdge, From: from, To: to, Label: de.Type, Props: props}); err != nil {
			return err
		}
	}
	return nil
}

// applyTo writes the derived components into a staging overlay, as one
// batch.
func (r *Result) applyTo(stage *overlay.Overlay) error {
	var ops []overlay.Op
	if err := r.writeOps(func(op overlay.Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		return err
	}
	_, err := stage.Apply(ops)
	return err
}

// ApplyStats reports what ApplyToPG changed in the target graph.
type ApplyStats struct {
	NodesCreated int
	EdgesCreated int
	PropsSet     int
}

// ApplyToPG applies writeOps to a mutable property graph holding the data
// the instance was loaded from, op by op: the same writes, and the same new
// OIDs, as an overlay over that graph's snapshot takes in a staged run.
func (r *Result) ApplyToPG(data *pg.Graph) (ApplyStats, error) {
	var stats ApplyStats
	named := map[string]pg.OID{}
	oid := func(ref overlay.Ref) pg.OID {
		if ref.Name != "" {
			return named[ref.Name]
		}
		return ref.ID
	}
	err := r.writeOps(func(op overlay.Op) error {
		switch op.Kind {
		case overlay.OpAddNode:
			named[op.Name] = data.AddNode(op.Labels, op.Props).ID
			stats.NodesCreated++
			stats.PropsSet += len(op.Props)
		case overlay.OpSetNodeProp:
			if err := data.SetNodeProp(oid(op.Node), op.Key, op.Value); err != nil {
				return err
			}
			stats.PropsSet++
		case overlay.OpAddEdge:
			if _, err := data.AddEdge(oid(op.From), oid(op.To), op.Label, op.Props); err != nil {
				return err
			}
			stats.EdgesCreated++
		}
		return nil
	})
	return stats, err
}

// ExportPG builds a fresh property graph from the loaded and derived
// instance: one node per entity (labeled with its type and every ancestor
// type) and one edge per instance edge. This realizes the model-independence
// promise end to end: an instance loaded from relational tables exports as a
// property graph with its intensional components materialized.
func (r *Result) ExportPG() *pg.Graph {
	out := pg.New()
	l := r.Loaded
	ids := make([]pg.OID, len(l.Entities)) // parallel to l.Entities
	for i, ent := range l.Entities {
		ids[i] = out.AddNode(l.Dict.upcasts[ent.Type], pg.PropMap(ent.Attrs)).ID
	}
	for _, e := range l.Edges {
		out.MustAddEdge(ids[l.index(e.From)], ids[l.index(e.To)], e.Type, pg.PropMap(e.Attrs))
	}
	return out
}
