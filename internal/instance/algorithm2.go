package instance

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/sortedset"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// Fault-injection sites of the materialization pipeline, one per phase of
// Algorithm 2. The load site sits inside the Source implementations — not at
// the Materialize boundary — so a RetryingSource wrapper actually covers the
// injected failure; the other phases are probed at their boundaries.
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
// the load side safe to share across concurrent materializations. Callers
// that want the derived components applied back (Result.ApplyToPG, and
// MaterializeStaged with more than one component) must supply a mutable
// *pg.Graph; MaterializeStaged refuses any other view with ErrNoWriteBack.
type PGSource struct{ Data pg.View }

func (s PGSource) load(d *Dictionary, instanceOID int64) (*Loaded, error) {
	if err := fault.Hit(siteLoad); err != nil {
		return nil, err
	}
	return d.loadPG(s.Data, instanceOID)
}

// RelationalSource is a relational data instance (tables of the Figure 8
// schema).
type RelationalSource struct{ Inst *RelationalInstance }

func (s RelationalSource) load(d *Dictionary, instanceOID int64) (*Loaded, error) {
	if err := fault.Hit(siteLoad); err != nil {
		return nil, err
	}
	return d.loadRelational(s.Inst, instanceOID)
}

// RetryingSource retries a transiently failing Source under the policy,
// handing each failed attempt's OIDs back to the dictionary so a retried load
// replays on exactly the pre-attempt allocator (same OIDs, same rendered
// dictionary — the "bit-identical to a no-fault run" guarantee the chaos
// suite asserts). Contained panics are never retried; they surface as
// *fault.PanicError.
type RetryingSource struct {
	Inner  Source
	Policy fault.RetryPolicy
}

func (s RetryingSource) load(d *Dictionary, instanceOID int64) (*Loaded, error) {
	var loaded *Loaded
	mark := d.next
	err := s.Policy.Do("instance/load", func() error {
		d.next = mark
		return fault.Guard("instance/load", func() error {
			var lerr error
			loaded, lerr = s.Inner.load(d, instanceOID)
			return lerr
		})
	})
	if err != nil {
		return nil, err
	}
	return loaded, nil
}

// Result is the outcome of Algorithm 2, with the phase breakdown that
// Section 6 discusses: loading the instance into the super-components and
// building the input views (Load), the reasoning task proper (Reason), and
// flushing the derived components back (Flush). On the Bank of Italy KG the
// paper reports ~160 minutes of reasoning against ~15 minutes of loading
// plus flushing; the benchmarks reproduce that shape.
type Result struct {
	Loaded      *Loaded
	Catalog     *metalog.Catalog
	Translation *metalog.Translation
	DB          *vadalog.Database
	Derived     *Derived
	RunStats    vadalog.RunStats

	LoadDuration   time.Duration
	ReasonDuration time.Duration
	FlushDuration  time.Duration
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
		Loaded:         loaded,
		Catalog:        cat,
		Translation:    tr,
		DB:             run.DB,
		Derived:        derived,
		RunStats:       run.Stats,
		LoadDuration:   loadDur,
		ReasonDuration: reasonDur,
		FlushDuration:  flushDur,
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

// ErrNoWriteBack refuses a staged run of two or more components over a
// source the derived components cannot be applied back to: every later
// component would read the unstaged input.
var ErrNoWriteBack = errors.New("instance: staging more than one component needs a mutable *pg.Graph source to write back to")

// MaterializeStaged runs Algorithm 2 once per component, in order, against
// the same data instance, and returns one Result per step. Each step gets a
// fresh dictionary (instanceOID+i), so instance constructs do not accumulate
// across steps — the staging-area flush of Section 6. The derived components
// are applied back to src after each step, so later components read what
// earlier ones derived; that needs src to be a PGSource over a mutable
// *pg.Graph (directly or inside a RetryingSource). Over any other source
// (a pg.Frozen snapshot, an overlay, a RelationalSource) a run of two or more
// components is refused with ErrNoWriteBack before any step runs; a single
// component runs over any source.
//
// Every component is first checked against the schema, before any step runs:
// the intensional language "should refer to the schema constructs" (§1), so a
// program naming a label or property the schema does not declare is refused.
//
// Under vadalog.BestEffort a step that fails mid-reasoning with a
// *vadalog.PartialError is kept and applied, and the steps so far come back
// alongside the wrapped error; later components do not run, since they must
// not read an unsaturated prefix. Every other error returns nil steps.
func MaterializeStaged(schema *supermodel.Schema, src Source, comps []Component, instanceOID int64, opts vadalog.Options) ([]*Result, error) {
	for _, c := range comps {
		if err := checkComponent(schema, c); err != nil {
			return nil, err
		}
	}
	data, writeBack := mutablePG(src)
	if !writeBack && len(comps) > 1 {
		return nil, ErrNoWriteBack
	}
	var steps []*Result
	for i, c := range comps {
		d, err := NewDictionary(schema)
		if err != nil {
			return nil, err
		}
		res, err := Materialize(d, src, c.Sigma, instanceOID+int64(i), opts)
		if err != nil {
			err = fmt.Errorf("instance: materializing %q: %w", c.Name, err)
			var pe *vadalog.PartialError
			if !errors.As(err, &pe) || res == nil {
				return nil, err
			}
		}
		steps = append(steps, res)
		if writeBack {
			if _, aerr := res.ApplyToPG(data); aerr != nil {
				return nil, fmt.Errorf("instance: applying %q: %w", c.Name, aerr)
			}
		}
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

// mutablePG unwraps src down to a mutable property graph, looking through a
// RetryingSource. A PGSource over any other view (a pg.Frozen snapshot, an
// overlay) or a relational source reports false: there is no graph to write
// back to.
func mutablePG(src Source) (*pg.Graph, bool) {
	if rs, ok := src.(RetryingSource); ok {
		src = rs.Inner
	}
	ps, ok := src.(PGSource)
	if !ok {
		return nil, false
	}
	g, ok := ps.Data.(*pg.Graph)
	return g, ok
}

// ApplyStats reports what ApplyToPG changed in the target graph.
type ApplyStats struct {
	NodesCreated int
	EdgesCreated int
	PropsSet     int
}

// ApplyToPG writes the derived components into a property-graph data
// instance: the final step of materialization when the target system is a
// graph database. For PG sources pass the original data graph; entity
// updates land on the corresponding nodes and new intensional entities and
// edges are created.
func (r *Result) ApplyToPG(data *pg.Graph) (ApplyStats, error) {
	var stats ApplyStats
	// Reverse map: entity I_SM_Node OID -> data node OID.
	rev := map[pg.OID]pg.OID{}
	for dataOID, ioid := range r.Loaded.SourceNode {
		rev[ioid] = dataOID
	}
	// New entities become new data nodes.
	for _, ent := range r.Derived.NewEntities {
		n := data.AddNode([]string{ent.Type}, nil)
		rev[ent.IOID] = n.ID
		stats.NodesCreated++
	}
	// Property updates flow onto the data nodes.
	for ioid, ent := range r.Loaded.Entities {
		dataOID, ok := rev[ioid]
		if !ok {
			continue
		}
		n := data.Node(dataOID)
		for _, k := range sortedset.Keys(ent.Attrs) {
			v := ent.Attrs[k]
			if cur, ok := n.Props[k]; !ok || !value.Identical(cur, v) {
				if err := data.SetNodeProp(dataOID, k, v); err != nil {
					return stats, err
				}
				stats.PropsSet++
			}
		}
	}
	// Derived edges.
	for _, de := range r.Derived.NewEdges {
		from, ok1 := rev[de.From]
		to, ok2 := rev[de.To]
		if !ok1 || !ok2 {
			return stats, fmt.Errorf("instance: derived edge %s endpoints not in target graph", de.Type)
		}
		if _, err := data.AddEdge(from, to, de.Type, de.Attrs); err != nil {
			return stats, err
		}
		stats.EdgesCreated++
	}
	return stats, nil
}

// ExportPG builds a fresh property graph from the loaded and derived
// instance: one node per entity (labeled with its type and every ancestor
// type) and one edge per instance edge. This realizes the model-independence
// promise end to end: an instance loaded from relational tables exports as a
// property graph with its intensional components materialized.
func (r *Result) ExportPG() *pg.Graph {
	out := pg.New()
	l := r.Loaded
	rev := map[pg.OID]pg.OID{}
	for _, ioid := range sortedset.Keys(l.Entities) {
		ent := l.Entities[ioid]
		rev[ioid] = out.AddNode(l.Dict.upcasts[ent.Type], ent.Attrs).ID
	}
	for _, e := range l.Edges {
		out.MustAddEdge(rev[e.From], rev[e.To], e.Type, e.Attrs)
	}
	return out
}
