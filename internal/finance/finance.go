// Package finance implements the financial intensional components the paper
// builds on the Bank of Italy Company KG (Sections 2.1 and 6): company
// control (Examples 4.1/4.2), the compaction of the HOLDS/BELONGS_TO
// decoupling into the intensional OWNS edge, integrated ownership, close
// links (ECB Guideline 2018/876), company groups, and family links.
//
// Each component exists in two forms:
//
//   - a MetaLog program, run through the full MTV → Vadalog pipeline, which
//     is how the paper materializes the intensional components;
//   - a native Go baseline, used to cross-validate the declarative path in
//     tests and as the comparison point in the ablation benchmarks.
package finance

import (
	"math"
	"sort"

	"repro/internal/fingraph"
	"repro/internal/sortedset"
)

// ControlProgram is Example 4.1 verbatim, in the textual MetaLog syntax: a
// business controls itself, and control propagates through jointly-held
// majorities.
func ControlProgram() string {
	return `
	(x: Business) -> (x) [c: CONTROLS] (x).
	(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
		v = sum(w, <z>), v > 0.5
		-> (x) [c: CONTROLS] (y).
	`
}

// ControlEntityProgram generalizes control to every shareholder (persons
// included), over the unified Entity label of the simple shareholding graph.
func ControlEntityProgram() string {
	return `
	(x: Entity) -> (x) [c: CONTROLS] (x).
	(x: Entity) [: CONTROLS] (z: Entity) [: OWNS; percentage: w] (y: Entity),
		v = sum(w, <z>), v > 0.5
		-> (x) [c: CONTROLS] (y).
	`
}

// ControlVadalog is Example 4.2 verbatim: the control component in plain
// Vadalog, over company/owns relations.
func ControlVadalog() string {
	return `
	controls(X, X) :- company(X).
	controls(X, Y) :- controls(X, Z), owns(Z, Y, W), V = msum(W, <Z>), V > 0.5.
	@output("controls").
	`
}

// OwnershipProgram compacts the HOLDS/BELONGS_TO decoupling of Section 3.3
// into the intensional OWNS edge (summing a holder's stakes per company) and
// derives the intensional numberOfStakeholders property.
func OwnershipProgram() string {
	return `
	(p: Person) [: HOLDS; right: "ownership", percentage: hp] (s: Share; percentage: sp)
		[: BELONGS_TO] (y: Business),
		q = hp * sp, w = sum(q)
		-> (p) [o: OWNS; percentage: w] (y).

	(p: Person) [: HOLDS] (s: Share) [: BELONGS_TO] (y: Business), c = count()
		-> (y: Business; numberOfStakeholders: c).
	`
}

// FamilyProgram derives the family constructs of Section 3.3: a Family node
// per surname (via a linker Skolem functor, so one family per surname),
// BELONGS_TO_FAMILY memberships, IS_RELATED_TO links between members, and
// FAMILY_OWNS edges where the members jointly hold a majority.
func FamilyProgram() string {
	return `
	(p: PhysicalPerson; name: n), f = substring_before(n, " ")
		-> (#skFam(f): Family; familyName: f),
		   (p) [e: BELONGS_TO_FAMILY] (#skFam(f): Family).

	(p: PhysicalPerson) [: BELONGS_TO_FAMILY] (f: Family),
	(q: PhysicalPerson) [: BELONGS_TO_FAMILY] (f), p != q
		-> (p) [e: IS_RELATED_TO; kind: "family"] (q).

	(p: PhysicalPerson) [: BELONGS_TO_FAMILY] (f: Family),
	(p) [: OWNS; percentage: w] (y: Business),
		v = sum(w, <p>), v > 0.5
		-> (f) [e: FAMILY_OWNS] (y).
	`
}

// CloseLinksDirectProgram derives the direct-capital part of the ECB close
// links: two entities are close-linked when one owns at least 20% of the
// other, or a third party owns at least 20% of both. The indirect
// (integrated-ownership) part needs products along paths and is computed
// natively (IntegratedOwnership / CloseLinks below).
func CloseLinksDirectProgram() string {
	return `
	(x: Entity) [: OWNS; percentage: w] (y: Entity), w >= 0.2
		-> (x) [c: CLOSE_LINK] (y), (y) [c2: CLOSE_LINK] (x).

	(z: Entity) [: OWNS; percentage: w1] (x: Entity),
	(z) [: OWNS; percentage: w2] (y: Entity),
		w1 >= 0.2, w2 >= 0.2, x != y
		-> (x) [c: CLOSE_LINK] (y).
	`
}

// --- Native baselines ---------------------------------------------------

// EntityID encodes topology holders and companies into one id space:
// companies keep their index, persons are encoded as -(index+1).
func EntityID(h fingraph.Holder) int {
	if h.IsCompany {
		return h.Index
	}
	return -(h.Index + 1)
}

// Ownership is the adjacency of the shareholding structure: for every owner
// entity, its stakes as (company, pct) pairs, deduplicated and summed.
type Ownership struct {
	// Out[owner] lists (company, pct); In[company] lists (owner, pct).
	Out map[int][]StakeTo
	In  map[int][]StakeFrom
	// Entities lists every entity id, sorted.
	Entities []int
}

// StakeTo is one outgoing stake.
type StakeTo struct {
	Company int
	Pct     float64
}

// StakeFrom is one incoming stake.
type StakeFrom struct {
	Owner int
	Pct   float64
}

// BuildOwnership aggregates topology stakes into the native adjacency.
func BuildOwnership(t *fingraph.Topology) *Ownership {
	type key struct{ owner, company int }
	agg := map[key]float64{}
	entities := map[int]bool{}
	for _, s := range t.Stakes {
		o := EntityID(s.Holder)
		agg[key{o, s.Company}] += s.Pct
		entities[o] = true
		entities[s.Company] = true
	}
	own := &Ownership{Out: map[int][]StakeTo{}, In: map[int][]StakeFrom{}}
	keys := make([]key, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].company < keys[j].company
	})
	for _, k := range keys {
		own.Out[k.owner] = append(own.Out[k.owner], StakeTo{Company: k.company, Pct: agg[k]})
		own.In[k.company] = append(own.In[k.company], StakeFrom{Owner: k.owner, Pct: agg[k]})
	}
	for e := range entities {
		own.Entities = append(own.Entities, e)
	}
	sort.Ints(own.Entities)
	return own
}

// ControlPair is one derived control edge.
type ControlPair struct{ Controller, Controlled int }

// NativeControl computes the control relation of Example 4.1 with a
// worklist algorithm: starting from each candidate controller, stake
// contributions from the controlled set accumulate per target until no new
// majority emerges. Self-control pairs are omitted (the MetaLog program
// derives them as its recursion seed; tests account for that). When
// companiesOnly is set, only companies are candidate controllers, matching
// Example 4.1; otherwise every shareholder is.
func NativeControl(own *Ownership, companiesOnly bool) []ControlPair {
	var out []ControlPair
	for _, x := range own.Entities {
		if companiesOnly && x < 0 {
			continue
		}
		controlled := controlledSet(own, x)
		for _, y := range controlled {
			out = append(out, ControlPair{Controller: x, Controlled: y})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Controller != out[j].Controller {
			return out[i].Controller < out[j].Controller
		}
		return out[i].Controlled < out[j].Controlled
	})
	return out
}

// controlledSet returns the companies controlled by x, sorted.
func controlledSet(own *Ownership, x int) []int {
	contrib := map[int]float64{}
	inSet := map[int]bool{}
	frontier := []int{x}
	var controlled []int
	for len(frontier) > 0 {
		z := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, st := range own.Out[z] {
			if st.Company == x || inSet[st.Company] {
				continue
			}
			contrib[st.Company] += st.Pct
			if contrib[st.Company] > 0.5 {
				inSet[st.Company] = true
				controlled = append(controlled, st.Company)
				frontier = append(frontier, st.Company)
			}
		}
	}
	sort.Ints(controlled)
	return controlled
}

// IntegratedOwnership computes, for one source entity, the integrated
// ownership vector IO(x, ·): the total share of each company owned directly
// and indirectly through the whole graph (Romei et al.), as the power series
// IO = A_x + IO·A evaluated by sparse Jacobi iteration. Cross-holding cycles
// with path products below one converge geometrically; maxIter bounds the
// pathological cases.
func IntegratedOwnership(own *Ownership, x int, eps float64, maxIter int) map[int]float64 {
	direct := map[int]float64{}
	for _, st := range own.Out[x] {
		direct[st.Company] = st.Pct
	}
	cur := map[int]float64{}
	for k, v := range direct {
		cur[k] = v
	}
	for iter := 0; iter < maxIter; iter++ {
		next := map[int]float64{}
		for k, v := range direct {
			next[k] = v
		}
		// Each company's contributions are summed in source-company order,
		// so repeated calls agree to the last bit.
		for _, z := range sortedset.Keys(cur) {
			v := cur[z]
			if v <= 0 {
				continue
			}
			for _, st := range own.Out[z] {
				if st.Company == x {
					continue
				}
				next[st.Company] += v * st.Pct
			}
		}
		delta := 0.0
		for k, v := range next {
			delta = math.Max(delta, math.Abs(v-cur[k]))
		}
		cur = next
		if delta < eps {
			break
		}
	}
	return cur
}

// CloseLinkPair is one undirected close link, stored with A < B.
type CloseLinkPair struct{ A, B int }

// CloseLinks computes the ECB close links over integrated ownership: x and
// y are close-linked when IO(x,y) ≥ threshold, IO(y,x) ≥ threshold, or a
// common third party z has IO(z,x) ≥ threshold and IO(z,y) ≥ threshold.
// sources restricts the candidate third parties and endpoints (pass
// own.Entities for the full relation; the production computation samples).
func CloseLinks(own *Ownership, sources []int, threshold float64, eps float64, maxIter int) []CloseLinkPair {
	io := map[int]map[int]float64{}
	for _, x := range sources {
		io[x] = IntegratedOwnership(own, x, eps, maxIter)
	}
	pairSet := map[CloseLinkPair]bool{}
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		pairSet[CloseLinkPair{a, b}] = true
	}
	for x, vec := range io {
		var held []int
		for y, v := range vec {
			if v >= threshold {
				add(x, y) // direct or indirect capital link
				held = append(held, y)
			}
		}
		sort.Ints(held)
		// Common-parent links: x holds ≥ threshold of both y1 and y2.
		for i := 0; i < len(held); i++ {
			for j := i + 1; j < len(held); j++ {
				add(held[i], held[j])
			}
		}
	}
	out := make([]CloseLinkPair, 0, len(pairSet))
	for p := range pairSet {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Group is a company group: an ultimate controller together with the
// companies it controls ("virtual concepts denoting a center of interest",
// Section 2.1).
type Group struct {
	Ultimate   int
	Controlled []int
}

// Groups derives company groups from the control relation: an entity is an
// ultimate controller if it controls at least one company and no other
// entity controls it.
func Groups(pairs []ControlPair) []Group {
	controlledBy := map[int][]int{}
	controls := map[int][]int{}
	for _, p := range pairs {
		if p.Controller == p.Controlled {
			continue
		}
		controlledBy[p.Controlled] = append(controlledBy[p.Controlled], p.Controller)
		controls[p.Controller] = append(controls[p.Controller], p.Controlled)
	}
	var ultimates []int
	for c := range controls {
		if len(controlledBy[c]) == 0 {
			ultimates = append(ultimates, c)
		}
	}
	sort.Ints(ultimates)
	out := make([]Group, 0, len(ultimates))
	for _, u := range ultimates {
		members := append([]int(nil), controls[u]...)
		sort.Ints(members)
		out = append(out, Group{Ultimate: u, Controlled: members})
	}
	return out
}
