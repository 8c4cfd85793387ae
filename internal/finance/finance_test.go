package finance

import (
	"context"
	"math"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// metalogControlPairs runs the Entity control program over the shareholding
// graph and returns the non-self control pairs as entity ids.
func metalogControlPairs(t *testing.T, topo *fingraph.Topology) map[ControlPair]bool {
	t.Helper()
	g := topo.Shareholding()
	prog, err := metalog.Parse(ControlEntityProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	// Map graph OIDs back to entity ids via fiscal codes.
	idOf := map[pg.OID]int{}
	for _, n := range g.Nodes() {
		fc := n.Props["fiscalCode"].S
		var idx int
		if _, err := scan(fc[2:], &idx); err != nil {
			t.Fatalf("bad fiscal code %q", fc)
		}
		if fc[:2] == "CO" {
			idOf[n.ID] = idx
		} else {
			idOf[n.ID] = -(idx + 1)
		}
	}
	out := map[ControlPair]bool{}
	for _, e := range g.EdgesByLabel("CONTROLS") {
		a, b := idOf[e.From], idOf[e.To]
		if a == b {
			continue
		}
		out[ControlPair{a, b}] = true
	}
	return out
}

func scan(s string, out *int) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	*out = n
	return n, nil
}

// TestControlMetaLogVsNative cross-validates the declarative control
// computation against the native worklist algorithm on random topologies.
func TestControlMetaLogVsNative(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		topo := fingraph.GenerateTopology(fingraph.DefaultConfig(120, seed))
		own := BuildOwnership(topo)
		native := map[ControlPair]bool{}
		for _, p := range NativeControl(own, false) {
			native[p] = true
		}
		ml := metalogControlPairs(t, topo)
		for p := range native {
			if !ml[p] {
				t.Errorf("seed %d: native pair %v missing from MetaLog result", seed, p)
			}
		}
		for p := range ml {
			if !native[p] {
				t.Errorf("seed %d: MetaLog pair %v missing from native result", seed, p)
			}
		}
		if len(native) == 0 {
			t.Errorf("seed %d: no control pairs at all — generator too sparse for the test", seed)
		}
	}
}

// TestControlVadalogExample42 runs the plain Vadalog form (Example 4.2) and
// checks it agrees with the native algorithm restricted to companies.
func TestControlVadalogExample42(t *testing.T) {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(150, 99))
	own := BuildOwnership(topo)

	prog := vadalog.MustParse(ControlVadalog())
	db := vadalog.NewDatabase()
	for _, e := range own.Entities {
		if e >= 0 {
			db.MustAddFact("company", value.IntV(int64(e)))
		}
	}
	for owner, stakes := range own.Out {
		if owner < 0 {
			continue // Example 4.2 reasons over companies only
		}
		for _, st := range stakes {
			db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
		}
	}
	res, err := vadalog.Run(prog, db, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[ControlPair]bool{}
	for _, f := range res.Output("controls") {
		a, b := int(f[0].I), int(f[1].I)
		if a != b {
			got[ControlPair{a, b}] = true
		}
	}
	// Native restricted to company-only ownership edges.
	companyOwn := &Ownership{Out: map[int][]StakeTo{}, In: map[int][]StakeFrom{}}
	for owner, stakes := range own.Out {
		if owner >= 0 {
			companyOwn.Out[owner] = stakes
		}
	}
	companyOwn.Entities = nil
	for _, e := range own.Entities {
		if e >= 0 {
			companyOwn.Entities = append(companyOwn.Entities, e)
		}
	}
	want := map[ControlPair]bool{}
	for _, p := range NativeControl(companyOwn, true) {
		want[p] = true
	}
	if len(got) != len(want) {
		t.Fatalf("control pair count: vadalog %d vs native %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

func TestIntegratedOwnershipChain(t *testing.T) {
	// a owns 80% of b, b owns 50% of c: IO(a,c) = 0.4.
	topo := &fingraph.Topology{Companies: 3}
	co := func(i int) fingraph.Holder { return fingraph.Holder{IsCompany: true, Index: i} }
	topo.Stakes = []fingraph.Stake{
		{Holder: co(0), Company: 1, Pct: 0.8},
		{Holder: co(1), Company: 2, Pct: 0.5},
	}
	own := BuildOwnership(topo)
	io := IntegratedOwnership(own, 0, 1e-9, 100)
	if got := io[1]; !close(got, 0.8) {
		t.Errorf("IO(a,b) = %v", got)
	}
	if got := io[2]; !close(got, 0.4) {
		t.Errorf("IO(a,c) = %v", got)
	}
}

func TestIntegratedOwnershipCycleConverges(t *testing.T) {
	// a owns 60% of b, b owns 30% of a (cross-holding): the geometric series
	// along the 2-cycle converges.
	topo := &fingraph.Topology{Companies: 2}
	co := func(i int) fingraph.Holder { return fingraph.Holder{IsCompany: true, Index: i} }
	topo.Stakes = []fingraph.Stake{
		{Holder: co(0), Company: 1, Pct: 0.6},
		{Holder: co(1), Company: 0, Pct: 0.3},
	}
	own := BuildOwnership(topo)
	io := IntegratedOwnership(own, 0, 1e-12, 1000)
	// Paths a->b, a->b->a->b (excluded: returns to a are cut), so IO(a,b)
	// stays at the direct 0.6 because paths through a itself are pruned.
	if got := io[1]; !close(got, 0.6) {
		t.Errorf("IO(a,b) = %v, want 0.6", got)
	}
}

// TestIntegratedOwnershipDeterministic: two calls per source over
// Example_closeLinks' graph (1,500 companies, seed 31) return bit-identical
// vectors; a sum taken in map order differs in its low bits run to run.
func TestIntegratedOwnershipDeterministic(t *testing.T) {
	own := BuildOwnership(fingraph.GenerateTopology(fingraph.DefaultConfig(1500, 31)))
	for _, x := range own.Entities {
		a, b := IntegratedOwnership(own, x, 1e-9, 100), IntegratedOwnership(own, x, 1e-9, 100)
		if len(a) != len(b) {
			t.Fatalf("source %d: %d vs %d companies", x, len(a), len(b))
		}
		for z, v := range a {
			if w, ok := b[z]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("source %d, company %d: %v vs %v", x, z, v, w)
			}
		}
	}
}

func TestCloseLinksCommonParent(t *testing.T) {
	// z owns 30% of x and 25% of y: x-y close-linked via common parent; z
	// linked to both directly.
	topo := &fingraph.Topology{Companies: 3}
	co := func(i int) fingraph.Holder { return fingraph.Holder{IsCompany: true, Index: i} }
	topo.Stakes = []fingraph.Stake{
		{Holder: co(2), Company: 0, Pct: 0.3},
		{Holder: co(2), Company: 1, Pct: 0.25},
	}
	own := BuildOwnership(topo)
	links := CloseLinks(own, own.Entities, 0.2, 1e-9, 100)
	want := []CloseLinkPair{{0, 1}, {0, 2}, {1, 2}}
	if len(links) != len(want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Errorf("links[%d] = %v, want %v", i, links[i], want[i])
		}
	}
}

func TestCloseLinksIndirect(t *testing.T) {
	// a owns 50% of b, b owns 50% of c: IO(a,c) = 0.25 ≥ 0.2 — an indirect
	// close link the direct-only rule would miss.
	topo := &fingraph.Topology{Companies: 3}
	co := func(i int) fingraph.Holder { return fingraph.Holder{IsCompany: true, Index: i} }
	topo.Stakes = []fingraph.Stake{
		{Holder: co(0), Company: 1, Pct: 0.5},
		{Holder: co(1), Company: 2, Pct: 0.5},
	}
	own := BuildOwnership(topo)
	links := CloseLinks(own, own.Entities, 0.2, 1e-9, 100)
	found := false
	for _, l := range links {
		if l == (CloseLinkPair{0, 2}) {
			found = true
		}
	}
	if !found {
		t.Errorf("indirect close link a~c missing: %v", links)
	}
}

func TestGroups(t *testing.T) {
	pairs := []ControlPair{
		{0, 1}, {0, 2}, {1, 2}, // 0 is ultimate, controls 1 and 2; 1 controls 2 but is itself controlled
		{5, 6},
	}
	groups := Groups(pairs)
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Ultimate != 0 || len(groups[0].Controlled) != 2 {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if groups[1].Ultimate != 5 || len(groups[1].Controlled) != 1 {
		t.Errorf("group 1 = %+v", groups[1])
	}
}

// TestOwnershipAndFamilyPrograms runs the full intensional component over a
// small Company KG instance: ownership compaction, then families.
func TestOwnershipAndFamilyPrograms(t *testing.T) {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(40, 3))
	g := topo.CompanyKG()

	prog, err := metalog.Parse(OwnershipProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatalf("ownership compaction: %v", err)
	}
	owns := g.EdgesByLabel("OWNS")
	if len(owns) == 0 {
		t.Fatal("no OWNS edges derived")
	}
	// Every business with a stakeholder got the intensional count.
	countSet := 0
	for _, n := range g.NodesByLabel("Business") {
		if v, ok := n.Props["numberOfStakeholders"]; ok && v.I > 0 {
			countSet++
		}
	}
	if countSet == 0 {
		t.Error("numberOfStakeholders never set")
	}

	famProg, err := metalog.Parse(FamilyProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metalog.Reason(context.Background(), famProg, g, vadalog.Options{}); err != nil {
		t.Fatalf("family program: %v", err)
	}
	fams := g.NodesByLabel("Family")
	if len(fams) == 0 || len(fams) > 10 {
		t.Errorf("families = %d, want one per surname (max 10)", len(fams))
	}
	if len(g.EdgesByLabel("BELONGS_TO_FAMILY")) == 0 {
		t.Error("no BELONGS_TO_FAMILY edges")
	}
	if len(g.EdgesByLabel("IS_RELATED_TO")) == 0 {
		t.Error("no IS_RELATED_TO edges")
	}
}

// TestOwnershipCompactionSums checks that multiple shares of the same
// holder in the same company sum into one OWNS percentage.
func TestOwnershipCompactionSums(t *testing.T) {
	g := pg.New()
	p := g.AddNode([]string{"PhysicalPerson", "Person"}, pg.Props{"fiscalCode": value.Str("P"), "name": value.Str("Rossi A")}).ID
	b := g.AddNode([]string{"Business"}, pg.Props{"fiscalCode": value.Str("B")}).ID
	for i, pct := range []float64{0.3, 0.4} {
		s := g.AddNode([]string{"Share"}, pg.Props{
			"shareCode": value.Str(string(rune('a' + i))), "percentage": value.FloatV(pct),
		}).ID
		g.MustAddEdge(p, s, "HOLDS", pg.Props{"right": value.Str("ownership"), "percentage": value.FloatV(1.0)})
		g.MustAddEdge(s, b, "BELONGS_TO", nil)
	}
	prog := metalog.MustParse(OwnershipProgram())
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	owns := g.EdgesByLabel("OWNS")
	if len(owns) != 1 {
		t.Fatalf("OWNS edges = %d, want 1 (aggregated)", len(owns))
	}
	if got := owns[0].Props["percentage"].F; !close(got, 0.7) {
		t.Errorf("aggregated percentage = %v, want 0.7", got)
	}
}

// TestCloseLinksDirectProgram runs the declarative direct close-links rule.
func TestCloseLinksDirectProgram(t *testing.T) {
	topo := &fingraph.Topology{Companies: 3}
	co := func(i int) fingraph.Holder { return fingraph.Holder{IsCompany: true, Index: i} }
	topo.Stakes = []fingraph.Stake{
		{Holder: co(2), Company: 0, Pct: 0.3},
		{Holder: co(2), Company: 1, Pct: 0.25},
	}
	g := topo.Shareholding()
	prog := metalog.MustParse(CloseLinksDirectProgram())
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	links := g.EdgesByLabel("CLOSE_LINK")
	// z~x (both directions), z~y (both), x~y and y~x via common parent: 6.
	if len(links) != 6 {
		t.Errorf("CLOSE_LINK edges = %d, want 6", len(links))
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
