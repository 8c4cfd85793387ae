package vadalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/value"
)

func TestRelationRemove(t *testing.T) {
	r := NewRelation(2)
	facts := []Fact{
		{value.IntV(1), value.Str("a")},
		{value.IntV(2), value.Str("b")},
		{value.IntV(3), value.Str("c")},
		{value.IntV(4), value.Str("d")},
	}
	for _, f := range facts {
		if _, err := r.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	r.ensureIndex(1 << 0) // pre-built index must survive the removal

	removed := r.Remove([]Fact{
		{value.IntV(2), value.Str("b")},
		{value.IntV(9), value.Str("z")},                 // absent: skipped
		{value.IntV(2), value.Str("b")},                 // duplicate: skipped
		{value.FloatV(3), value.Str("c")},               // wrong kind: not canonical-equal, skipped
		{value.IntV(4), value.Str("d"), value.Str("x")}, // wrong arity: skipped
	})
	if len(removed) != 1 || !tupleEqual(removed[0], facts[1]) {
		t.Fatalf("removed = %v", removed)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	// The tail fact is swapped into the vacated slot (survivor order is not
	// preserved; O(k) removal is).
	for i, want := range []Fact{facts[0], facts[3], facts[2]} {
		if !tupleEqual(r.At(i), want) {
			t.Fatalf("at %d: %v want %v", i, r.At(i), want)
		}
	}
	// Dedup and the pre-built index are coherent after the removal.
	if r.Contains(facts[1]) {
		t.Error("removed fact still Contains")
	}
	if !r.Contains(facts[2]) {
		t.Error("surviving fact lost")
	}
	if got := positions(r, 1<<0, []value.Value{value.IntV(3)}); len(got) != 1 || got[0] != 2 {
		t.Errorf("index lookup after remove = %v, want [2]", got)
	}
	if got := positions(r, 1<<0, []value.Value{value.IntV(4)}); len(got) != 1 || got[0] != 1 {
		t.Errorf("index lookup of moved fact = %v, want [1]", got)
	}
	if ok, _ := r.Insert(facts[1]); !ok {
		t.Error("re-inserting a removed fact must succeed")
	}
}

// TestRelationRemoveModel drives random insert/remove interleavings against a
// naive map model, checking after every step that membership, lookups, and
// the ascending-positions invariant of the posting lists all hold. This is
// the guard on the O(k) swap-remove bookkeeping: a stale dedup entry or an
// out-of-order posting list here would surface as a missed join or a wrong
// window downstream, far from the cause.
//
// Besides the small random relations, three inputs start from 1,023, 1,024
// and 1,025 rows, so the swap-remove moves rows across the first page
// boundary. Every Fact At and Remove hand out must keep its values through
// the later swap-removes and through a Reset with reinserts over the same
// rows: they copy, never alias the pages (All and Sorted return views, valid
// until the next write).
func TestRelationRemoveModel(t *testing.T) {
	type input struct {
		seed       int64
		fill, keys int // fill distinct facts first, over a keys×keys space
	}
	var inputs []input
	for seed := int64(0); seed < 20; seed++ {
		inputs = append(inputs, input{seed, 0, 12})
	}
	for _, fill := range []int{pageLen - 1, pageLen, pageLen + 1} {
		inputs = append(inputs, input{int64(fill), fill, 40})
	}
	for _, in := range inputs {
		seed := in.seed
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation(2)
		r.ensureIndex(1 << 0)
		r.ensureIndex(1<<0 | 1<<1)
		model := map[[2]int64]bool{}
		mkFact := func() (Fact, [2]int64) {
			k := [2]int64{int64(rng.Intn(in.keys)), int64(rng.Intn(in.keys))}
			return Fact{value.IntV(k[0]), value.IntV(k[1])}, k
		}
		for i := 0; i < in.fill; i++ {
			k := [2]int64{int64(i / in.keys), int64(i % in.keys)}
			if ok, err := r.Insert(Fact{value.IntV(k[0]), value.IntV(k[1])}); err != nil || !ok {
				t.Fatalf("seed %d: fill insert %d = %v, %v", seed, i, ok, err)
			}
			model[k] = true
		}
		// held pairs every Fact At or Remove returned with a copy of its
		// values at the time.
		type heldFact struct{ got, want Fact }
		var held []heldFact
		hold := func(fs ...Fact) {
			for _, f := range fs {
				held = append(held, heldFact{f, slices.Clone(f)})
			}
		}
		for step := 0; step < 400; step++ {
			if step%200 == 0 {
				for pos := 0; pos < r.Len(); pos++ {
					hold(r.At(pos))
				}
			}
			if rng.Intn(3) > 0 {
				f, k := mkFact()
				ok, err := r.Insert(f)
				if err != nil {
					t.Fatal(err)
				}
				if ok == model[k] {
					t.Fatalf("seed %d step %d: Insert(%v) new=%v, model says %v", seed, step, f, ok, !model[k])
				}
				model[k] = true
			} else {
				n := 1 + rng.Intn(3)
				var batch []Fact
				var keys [][2]int64
				for i := 0; i < n; i++ {
					f, k := mkFact()
					batch = append(batch, f)
					keys = append(keys, k)
				}
				removed := r.Remove(batch)
				hold(removed...)
				want := 0
				for _, k := range keys {
					if model[k] {
						want++
						delete(model, k)
					}
				}
				if len(removed) != want {
					t.Fatalf("seed %d step %d: Remove removed %d, model says %d", seed, step, len(removed), want)
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, r.Len(), len(model))
			}
		}
		// Full coherence sweep: every model fact is findable by Contains and
		// both indexes; per-column lookup counts match; positions ascend.
		byFirst := map[int64]int{}
		for k := range model {
			byFirst[k[0]]++
			f := Fact{value.IntV(k[0]), value.IntV(k[1])}
			if !r.Contains(f) {
				t.Fatalf("seed %d: model fact %v lost", seed, f)
			}
			if got := positions(r, 1<<0|1<<1, f); len(got) != 1 || !tupleEqual(r.At(got[0]), f) {
				t.Fatalf("seed %d: full-mask lookup of %v = %v", seed, f, got)
			}
		}
		for first, want := range byFirst {
			got := positions(r, 1<<0, []value.Value{value.IntV(first)})
			if len(got) != want {
				t.Fatalf("seed %d: lookup(%d) found %d positions, want %d", seed, first, len(got), want)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("seed %d: posting list for %d not ascending: %v", seed, first, got)
				}
			}
		}
		// Reset and write other facts over every row the relation had.
		rows := r.Len()
		r.Reset()
		for i := 0; i <= max(rows, in.fill); i++ {
			if _, err := r.Insert(Fact{value.IntV(-1), value.IntV(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range held {
			if !tupleEqual(h.got, h.want) {
				t.Fatalf("seed %d: a fact a reader returned changed from %v to %v", seed, h.want, h.got)
			}
		}
	}
}

// TestAssertedFactsAreCopies: the asserted facts a Maintainer hands out keep
// their values when a later batch swap-removes rows of the extensional
// relation across a page boundary and asserts new facts into them.
func TestAssertedFactsAreCopies(t *testing.T) {
	prog := MustParse(`tc(X,Y) :- edge(X,Y).`)
	db := NewDatabase()
	for i := 0; i <= pageLen; i++ {
		db.MustAddFact("edge", value.IntV(int64(i)), value.IntV(int64(i+1)))
	}
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := m.AssertedFacts("edge")
	want := make([]Fact, len(got))
	for i, f := range got {
		want[i] = slices.Clone(f)
	}
	for i := 0; i < 10; i++ {
		d := NewDelta()
		d.DelFact("edge", value.IntV(int64(i)), value.IntV(int64(i+1)))
		d.AddFact("edge", value.IntV(int64(-i)), value.Str("new"))
		if _, err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if !tupleEqual(got[i], want[i]) {
			t.Fatalf("asserted fact %d changed from %v to %v", i, want[i], got[i])
		}
	}
}

// TestInstallRows: an installed relation is sealed over the rows in their
// order, its cold readers assemble tuples the caller may keep, and the first
// write replaces it by a mutable copy in the same order.
func TestInstallRows(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("p", value.IntV(2))
	d.MustAddFact("p", value.IntV(1))
	d.InstallRows("p", 1, toColumns(1, []Fact{{value.IntV(1)}, {value.IntV(2)}}))
	r := d.Relation("p")
	if r.Len() != 2 || !tupleEqual(r.At(0), Fact{value.IntV(1)}) || !tupleEqual(r.At(1), Fact{value.IntV(2)}) || r.sealed == nil {
		t.Fatalf("installed relation = %v, sealed %v", r.All(), r.sealed != nil)
	}
	r.At(0)[0] = value.IntV(9)
	r.All()[1][0] = value.IntV(9)
	if got := fmt.Sprint(r.All(), r.Sorted()); got != "[(1) (2)] [(1) (2)]" {
		t.Fatalf("a scribbled tuple reached the relation: %s", got)
	}
	d.InstallRows("q", 2, toColumns(2, nil))
	if d.Relation("q").Arity != 2 || d.Count("q") != 0 {
		t.Fatal("new relation arity")
	}
	if added, err := d.AddFact("p", value.IntV(3)); err != nil || !added {
		t.Fatalf("AddFact: %v %v", added, err)
	}
	if got := fmt.Sprint(d.Facts("p")); got != "[(1) (2) (3)]" || d.Relation("p").sealed != nil || r.Len() != 2 {
		t.Fatalf("after AddFact: %s, the installed relation holds %d", got, r.Len())
	}
}

// maintainerVsFresh asserts the maintained database equals a fresh full run
// over the maintainer's asserted facts.
func maintainerVsFresh(t *testing.T, m *Maintainer, prog *Program) {
	t.Helper()
	fresh := NewDatabase()
	preds := m.DB().Predicates()
	for pred := range m.edb {
		preds = append(preds, pred)
	}
	for _, pred := range preds {
		for _, f := range m.AssertedFacts(pred) {
			fresh.MustAddFact(pred, f...)
		}
	}
	if _, err := RunInPlace(prog, fresh, Options{}); err != nil {
		t.Fatal(err)
	}
	got, want := m.DB().Dump(), fresh.Dump()
	if got != want {
		t.Fatalf("maintained database diverges from full rebuild:\n--- maintained ---\n%s\n--- full ---\n%s", got, want)
	}
}

func TestMaintainerTransitiveClosure(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		db.MustAddFact("edge", value.Str(e[0]), value.Str(e[1]))
	}
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Incremental() {
		t.Fatalf("tc program must be incremental, got %q", m.Unsupported())
	}
	if m.DB().Count("tc") != 6 {
		t.Fatalf("initial tc = %d", m.DB().Count("tc"))
	}

	// Retract the middle edge: the chain splits, only a->b and c->d remain.
	d := NewDelta()
	d.DelFact("edge", value.Str("b"), value.Str("c"))
	stats, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recomputed {
		t.Error("incremental path expected")
	}
	if m.DB().Count("tc") != 2 {
		t.Fatalf("tc after retraction = %d, want 2", m.DB().Count("tc"))
	}
	if stats.Deleted == 0 || stats.OverDeleted < stats.Deleted {
		t.Errorf("stats = %+v", stats)
	}
	maintainerVsFresh(t, m, prog)

	// Mixed batch: remove one edge, add a bridging one.
	d = NewDelta()
	d.DelFact("edge", value.Str("a"), value.Str("b"))
	d.AddFact("edge", value.Str("d"), value.Str("c"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	maintainerVsFresh(t, m, prog)

	// Close a cycle and then reopen it.
	d = NewDelta()
	d.AddFact("edge", value.Str("c"), value.Str("d"))
	d.AddFact("edge", value.Str("d"), value.Str("d"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	maintainerVsFresh(t, m, prog)
	d = NewDelta()
	d.DelFact("edge", value.Str("d"), value.Str("d"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerRederivation: a fact with two derivations survives losing
// one of them (the DRed re-derive phase must restore it).
func TestMaintainerRederivation(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	// Two disjoint paths a->z: via b and via c.
	for _, e := range [][2]string{{"a", "b"}, {"b", "z"}, {"a", "c"}, {"c", "z"}} {
		db.MustAddFact("edge", value.Str(e[0]), value.Str(e[1]))
	}
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.DelFact("edge", value.Str("a"), value.Str("b"))
	stats, err := m.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// tc(a,z) is over-deleted through the lost path but re-derived via c.
	if stats.Rederived == 0 {
		t.Errorf("expected re-derivations, stats = %+v", stats)
	}
	if !m.DB().Relation("tc").Contains(Fact{value.Str("a"), value.Str("z")}) {
		t.Error("tc(a,z) lost despite surviving derivation")
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerEDBOverlap: a fact both asserted and derivable only
// disappears when it loses both supports.
func TestMaintainerEDBOverlap(t *testing.T) {
	prog := MustParse(`p(X) :- q(X).`)
	db := NewDatabase()
	db.MustAddFact("q", value.IntV(1))
	db.MustAddFact("p", value.IntV(1)) // also asserted directly
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Retracting the assertion keeps p(1): still derived from q(1).
	d := NewDelta()
	d.DelFact("p", value.IntV(1))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !m.DB().Relation("p").Contains(Fact{value.IntV(1)}) {
		t.Fatal("p(1) must survive via derivation")
	}
	maintainerVsFresh(t, m, prog)

	// Retracting q(1) now removes the last support.
	d = NewDelta()
	d.DelFact("q", value.IntV(1))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("p") != 0 {
		t.Fatal("p(1) must fall with its last support")
	}
	maintainerVsFresh(t, m, prog)

	// Symmetric case: retracting the EDB support of a fact that is also
	// asserted keeps the assertion.
	d = NewDelta()
	d.AddFact("q", value.IntV(2))
	d.AddFact("p", value.IntV(2))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	d = NewDelta()
	d.DelFact("q", value.IntV(2))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !m.DB().Relation("p").Contains(Fact{value.IntV(2)}) {
		t.Fatal("asserted p(2) must survive losing its derivation")
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerAssignmentKinds: rules with assignment targets take the
// in-place / verbatim transformation paths, and numeric kinds stay exact.
func TestMaintainerAssignmentKinds(t *testing.T) {
	prog := MustParse(`r(X, Y) :- p(X), Y = X + 1.`)
	db := NewDatabase()
	db.MustAddFact("p", value.IntV(1))
	db.MustAddFact("p", value.FloatV(1))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("r") != 2 {
		t.Fatalf("r count = %d, want 2 (Int and Float results are distinct facts)", m.DB().Count("r"))
	}
	d := NewDelta()
	d.DelFact("p", value.IntV(1))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	r := m.DB().Relation("r")
	if r.Contains(Fact{value.IntV(1), value.IntV(2)}) {
		t.Error("Int result must be retracted with its support")
	}
	if !r.Contains(Fact{value.FloatV(1), value.FloatV(2)}) {
		t.Error("Float result must survive: its support was not deleted")
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerSkolemHeads: explicit linker Skolem heads are in the
// incremental class (handled by the verbatim re-derivation fallback).
func TestMaintainerSkolemHeads(t *testing.T) {
	prog := MustParse(`
		link(#l(X), X) :- src(X).
		holder(H) :- link(H, X), keep(X).
	`)
	db := NewDatabase()
	db.MustAddFact("src", value.Str("a"))
	db.MustAddFact("src", value.Str("b"))
	db.MustAddFact("keep", value.Str("a"))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Incremental() {
		t.Fatalf("explicit Skolem heads must stay incremental, got %q", m.Unsupported())
	}
	d := NewDelta()
	d.DelFact("src", value.Str("b"))
	d.AddFact("keep", value.Str("b")) // no src(b) anymore: no holder via b
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	maintainerVsFresh(t, m, prog)
	d = NewDelta()
	d.DelFact("src", value.Str("a"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("holder") != 0 {
		t.Error("holder must fall with src(a)")
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerFallback: programs outside the incremental class are
// maintained by transparent full recomputation.
func TestMaintainerFallback(t *testing.T) {
	cases := []struct {
		name, src, reason string
	}{
		{"negation", `p(X) :- q(X), not r(X).`, "negation"},
		{"aggregation", `s(G, T) :- q(G, V), T = sum(V).`, "aggregation"},
		{"monotonic aggregation", `s(G, T) :- q(G, V), T = msum(V, <V>).`, "aggregation"},
		{"existential", `p(X, Z) :- q(X).`, "existential"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustParse(tc.src)
			db := NewDatabase()
			db.MustAddFact("q", value.Str("g"), value.IntV(3))
			db.MustAddFact("q", value.Str("g"), value.IntV(5))
			if tc.name == "negation" || tc.name == "existential" {
				db = NewDatabase()
				db.MustAddFact("q", value.IntV(1))
				db.MustAddFact("q", value.IntV(2))
				db.MustAddFact("r", value.IntV(2))
			}
			m, err := NewMaintainer(prog, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m.Incremental() {
				t.Fatal("program must be outside the incremental class")
			}
			if !strings.Contains(m.Unsupported(), tc.reason) {
				t.Fatalf("reason = %q, want %q", m.Unsupported(), tc.reason)
			}
			d := NewDelta()
			d.DelFact("q", db.Relation("q").At(0)...)
			stats, err := m.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Recomputed {
				t.Error("fallback batch must report Recomputed")
			}
			maintainerVsFresh(t, m, prog)
		})
	}
}

func TestMaintainerValidation(t *testing.T) {
	prog := MustParse(`tc(X,Y) :- edge(X,Y).`)
	db := NewDatabase()
	db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.DB().Dump()

	// Retracting a fact that is not asserted (even one that is derived).
	d := NewDelta()
	d.DelFact("tc", value.Str("a"), value.Str("b"))
	if _, err := m.Apply(d); err == nil {
		t.Error("retracting a derived-only fact must fail")
	}
	// Retracting an absent fact.
	d = NewDelta()
	d.DelFact("edge", value.Str("x"), value.Str("y"))
	if _, err := m.Apply(d); err == nil {
		t.Error("retracting an absent fact must fail")
	}
	// Arity mismatch on assertion.
	d = NewDelta()
	d.AddFact("edge", value.Str("only-one"))
	if _, err := m.Apply(d); err == nil {
		t.Error("arity mismatch must fail")
	}
	if got := m.DB().Dump(); got != before {
		t.Fatal("rejected batches must leave the database untouched")
	}
	// An empty batch is a no-op.
	stats, err := m.Apply(NewDelta())
	if err != nil || stats.Added != 0 || stats.Deleted != 0 {
		t.Fatalf("empty batch: %+v, %v", stats, err)
	}
}

// TestMaintainerFaultRestore: an injected failure mid-batch rolls the
// maintained database back to exactly its pre-batch state, for a mixed batch
// on the DRed path and an insertion-only one on the resume path.
func TestMaintainerFaultRestore(t *testing.T) {
	defer fault.Reset()
	for _, src := range []string{tcProgram.String(), tcNullSrc} {
		prog := MustParse(src)
		for _, after := range []int{1, 2, 3} {
			fault.Reset()
			db := NewDatabase()
			for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
				db.MustAddFact("edge", value.Str(e[0]), value.Str(e[1]))
			}
			m, err := NewMaintainer(prog, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			before := m.DB().Dump()
			if err := fault.Arm("vadalog/delta", fault.Plan{Mode: fault.ModeError, After: after}); err != nil {
				t.Fatal(err)
			}
			d := NewDelta()
			if m.Incremental() {
				d.DelFact("edge", value.Str("b"), value.Str("c"))
			}
			d.AddFact("edge", value.Str("d"), value.Str("e"))
			if _, err := m.Apply(d); err == nil {
				t.Fatalf("after=%d: armed fault must fail the batch", after)
			}
			if got := m.DB().Dump(); got != before {
				t.Fatalf("after=%d: failed batch must restore the database:\n--- got ---\n%s\n--- want ---\n%s", after, got, before)
			}
			// The maintainer stays usable: the same batch succeeds once disarmed.
			fault.Reset()
			if _, err := m.Apply(d); err != nil {
				t.Fatalf("after=%d: post-recovery batch: %v", after, err)
			}
			maintainerVsFresh(t, m, prog)
		}
	}
}

// TestMaintainerFaultInsertionPhase: a batch that fails while its
// insertions run — canceled, or past MaxFacts — leaves no trace in the live
// database, on the DRed path and on the resume path alike, and the next
// batch equals a fresh run. Both programs derive 20 facts from two 5-chains;
// joining the chains derives 25 more, past the limit of 24 per phase.
func TestMaintainerFaultInsertionPhase(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name, src, pred string
		link            func(from, to int64) []value.Value
	}{
		{"dred", tcProgram.String(), "edge", func(x, y int64) []value.Value {
			return []value.Value{value.IntV(x), value.IntV(y)}
		}},
		{"resume", `
			controls(X, Y) :- owns(X, Y, W), W > 0.5.
			controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
		`, "owns", func(x, y int64) []value.Value {
			return []value.Value{value.IntV(x), value.IntV(y), value.FloatV(0.6)}
		}},
	} {
		for _, fail := range []struct {
			name string
			ctx  context.Context
			want func(error) bool
		}{
			{"canceled", canceled, func(err error) bool { return errors.Is(err, ErrCanceled) }},
			{"MaxFacts", context.Background(), func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "fact limit")
			}},
		} {
			t.Run(tc.name+"/"+fail.name, func(t *testing.T) {
				prog := MustParse(tc.src)
				db := NewDatabase()
				for i := int64(0); i < 10; i++ {
					if i != 4 && i != 9 {
						db.MustAddFact(tc.pred, tc.link(i, i+1)...)
					}
				}
				m, err := NewMaintainer(prog, db, Options{MaxFacts: 24})
				if err != nil {
					t.Fatal(err)
				}
				before := m.DB().Dump()
				join := NewDelta()
				join.AddFact(tc.pred, tc.link(4, 5)...)
				if _, err := m.ApplyCtx(fail.ctx, join); !fail.want(err) {
					t.Fatalf("err = %v", err)
				}
				if got := m.DB().Dump(); got != before {
					t.Fatalf("failed batch left the database changed:\n--- got ---\n%s\n--- want ---\n%s", got, before)
				}
				for _, a := range m.AssertedFacts(tc.pred) {
					if a.String() == Fact(tc.link(4, 5)).String() {
						t.Fatal("failed batch left its fact asserted")
					}
				}
				// Extending a chain derives 5 facts: within the limit, which
				// counts this batch only.
				next := NewDelta()
				next.AddFact(tc.pred, tc.link(9, 10)...)
				stats, err := m.Apply(next)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Recomputed {
					t.Error("insertion-only batch recomputed")
				}
				maintainerVsFresh(t, m, prog)
			})
		}
	}
}

// TestMaintainerPanicContained: a panic-mode fault is contained by the
// guard, surfaces as an error, and the rollback still runs.
func TestMaintainerPanicContained(t *testing.T) {
	defer fault.Reset()
	prog := MustParse(`tc(X,Y) :- edge(X,Y).`)
	db := NewDatabase()
	db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.DB().Dump()
	if err := fault.Arm("vadalog/delta", fault.Plan{Mode: fault.ModePanic, After: 2}); err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.AddFact("edge", value.Str("b"), value.Str("c"))
	if _, err := m.Apply(d); err == nil {
		t.Fatal("panic fault must surface as an error")
	}
	if got := m.DB().Dump(); got != before {
		t.Fatal("panicked batch must restore the database")
	}
}

// TestDeltaProgramShapes pins the program transformations.
func TestDeltaProgramShapes(t *testing.T) {
	prog := MustParse(`
		base(1, 2).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
		r(X, Y) :- p(X), Y = X + 1.
	`)
	del := buildDeletionProgram(prog)
	// Fact rule contributes nothing; tc rule has two atom occurrences; the
	// assignment rule one.
	if len(del.Rules) != 3 {
		t.Fatalf("deletion program has %d rules, want 3:\n%v", len(del.Rules), del.Rules)
	}
	// tc variants: delta atom front-loaded.
	if del.Rules[0].Body[0].Atom.Pred != delPrefix+"tc" || del.Rules[0].Head[0].Pred != delPrefix+"tc" {
		t.Errorf("variant 0 = %v", del.Rules[0])
	}
	if del.Rules[1].Body[0].Atom.Pred != delPrefix+"edge" {
		t.Errorf("variant 1 = %v", del.Rules[1])
	}
	// Assignment rule: X is p's var and an arithmetic source but not an
	// assignment target, so fronting is allowed... unless Y were in p. Y is
	// the target and does not appear in p(X), so this fronts too.
	if del.Rules[2].Body[0].Atom.Pred != delPrefix+"p" {
		t.Errorf("variant 2 = %v", del.Rules[2])
	}

	cand := buildRederivationProgram(prog)
	if len(cand.Rules) != 3 {
		t.Fatalf("re-derivation program has %d rules, want 3:\n%v", len(cand.Rules), cand.Rules)
	}
	// Fact rule verbatim.
	if len(cand.Rules[0].Body) != 0 {
		t.Errorf("fact rule must stay verbatim: %v", cand.Rules[0])
	}
	// tc rule guarded by cand·tc.
	if cand.Rules[1].Body[0].Atom.Pred != candPrefix+"tc" {
		t.Errorf("guarded rule = %v", cand.Rules[1])
	}
	// Assignment-target head variable: verbatim (unguardable).
	if len(cand.Rules[2].Body) != 2 || cand.Rules[2].Body[0].Kind != LitAtom || cand.Rules[2].Body[0].Atom.Pred != "p" {
		t.Errorf("assignment rule must stay verbatim: %v", cand.Rules[2])
	}

	// A rule whose delta atom's variable is an assignment target keeps the
	// delta atom in place (no fronting).
	prog2 := MustParse(`out(Y) :- a(X), b(Y), Y = X + 1.`)
	del2 := buildDeletionProgram(prog2)
	if len(del2.Rules) != 2 {
		t.Fatalf("del2 rules = %d", len(del2.Rules))
	}
	// Variant for a(X): frontable (X is not a target).
	if del2.Rules[0].Body[0].Atom.Pred != delPrefix+"a" {
		t.Errorf("a-variant = %v", del2.Rules[0])
	}
	// Variant for b(Y): Y is a target, so the del atom stays at position 1.
	if del2.Rules[1].Body[0].Atom.Pred != "a" || del2.Rules[1].Body[1].Atom.Pred != delPrefix+"b" {
		t.Errorf("b-variant = %v", del2.Rules[1])
	}
	// And the rule is unguardable (head var Y is a target).
	cand2 := buildRederivationProgram(prog2)
	if len(cand2.Rules) != 1 || len(cand2.Rules[0].Body) != 3 {
		t.Errorf("cand2 = %v", cand2.Rules)
	}

	// Multi-head guardable rule: one variant per head.
	prog3 := MustParse(`h1(X), h2(X) :- p(X).`)
	cand3 := buildRederivationProgram(prog3)
	if len(cand3.Rules) != 2 ||
		cand3.Rules[0].Body[0].Atom.Pred != candPrefix+"h1" ||
		cand3.Rules[1].Body[0].Atom.Pred != candPrefix+"h2" ||
		len(cand3.Rules[0].Head) != 2 {
		t.Errorf("cand3 = %v", cand3.Rules)
	}
}

// TestMaintainerNewPredicates: assertions may introduce predicates the
// program never mentions; they are maintained as plain extensional data.
func TestMaintainerNewPredicates(t *testing.T) {
	prog := MustParse(`tc(X,Y) :- edge(X,Y).`)
	db := NewDatabase()
	db.MustAddFact("edge", value.Str("a"), value.Str("b"))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.AddFact("meta", value.Str("k"), value.Str("v"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("meta") != 1 {
		t.Fatal("new predicate must be stored")
	}
	d = NewDelta()
	d.DelFact("meta", value.Str("k"), value.Str("v"))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("meta") != 0 {
		t.Fatal("new predicate must be retractable")
	}
	maintainerVsFresh(t, m, prog)
}

// TestMaintainerWorkers: the maintainer takes the parallel evaluation path
// too and agrees with the sequential result.
func TestMaintainerWorkers(t *testing.T) {
	prog := MustParse(`
		tc(X,Y) :- edge(X,Y).
		tc(X,Z) :- tc(X,Y), edge(Y,Z).
	`)
	db := NewDatabase()
	for i := int64(0); i < 12; i++ {
		db.MustAddFact("edge", value.IntV(i), value.IntV(i+1))
	}
	m, err := NewMaintainer(prog, db, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.DelFact("edge", value.IntV(5), value.IntV(6))
	d.AddFact("edge", value.IntV(12), value.IntV(0))
	if _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	maintainerVsFresh(t, m, prog)
}
