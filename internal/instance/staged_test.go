package instance

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

func component(name, src string) Component {
	return Component{Name: name, Sigma: metalog.MustParse(src)}
}

// stagedData is a synthetic register extract of 60 companies.
func stagedData() *pg.Graph {
	return fingraph.GenerateTopology(fingraph.DefaultConfig(60, 11)).CompanyKG()
}

// TestMaterializeStagedValidatesEagerly: a broken component is refused before
// any step runs, so the valid component ahead of it derives nothing either.
// Syntax errors surface earlier still, when the caller parses the program.
func TestMaterializeStagedValidatesEagerly(t *testing.T) {
	if _, err := metalog.Parse(`(x: Business -> (x).`); err == nil {
		t.Error("syntax errors must surface when the component is parsed")
	}
	data := stagedData()
	edges := data.NumEdges()
	comps := []Component{
		component("control", finance.ControlProgram()),
		component("recursive-star", `(x: Business) ([: CONTROLS])+ (y: Business) -> (x) [c: CONTROLS] (y).`),
	}
	steps, err := MaterializeStaged(supermodel.CompanyKG(), PGSource{Data: data}, comps, 1, vadalog.Options{})
	if err == nil || !strings.Contains(err.Error(), `"recursive-star"`) {
		t.Fatalf("decidability violation must be refused naming the component, got %v", err)
	}
	if steps != nil || data.NumEdges() != edges {
		t.Errorf("a refused component let %d steps run (%d edges added)", len(steps), data.NumEdges()-edges)
	}
}

// TestMaterializeStagedModelAwareness: the intensional language refers to the
// schema constructs (§1), so a program naming a label or property the schema
// does not declare is refused, with the unknown constructs sorted.
func TestMaterializeStagedModelAwareness(t *testing.T) {
	schema := supermodel.CompanyKG()
	run := func(src string) error {
		_, err := MaterializeStaged(schema, PGSource{Data: buildCompanyData(t)}, []Component{component("c", src)}, 1, vadalog.Options{})
		return err
	}
	err := run(`(x: Zeta) -> (x) [c: CONTROLS] (x). (y: Bussiness) -> (y) [c: CONTROLS] (y).`)
	if err == nil || !strings.Contains(err.Error(), "outside the schema: node Bussiness, node Zeta") {
		t.Errorf("unknown labels must be named in sorted order, got %v", err)
	}
	if err := run(`(x: Business; sharholdingCapital: c) -> (x) [o: OWNS; percentage: c] (x).`); err == nil ||
		!strings.Contains(err.Error(), "node Business.sharholdingCapital") {
		t.Errorf("unknown property must be refused by name, got %v", err)
	}
	if err := run(`(x: Business; shareholdingCapital: c) -> (x) [o: OWNS; percentage: c] (x).`); err != nil {
		t.Errorf("schema-conformant program refused: %v", err)
	}
}

// TestMaterializeStagedOwnershipThenControl is the staged run of Section 6:
// ownership compaction is applied to the data graph, so control, the next
// step, reasons over the derived OWNS edges.
func TestMaterializeStagedOwnershipThenControl(t *testing.T) {
	data := stagedData()
	comps := []Component{
		component("ownership", finance.OwnershipProgram()),
		component("control", finance.ControlProgram()),
	}
	steps, err := MaterializeStaged(supermodel.CompanyKG(), PGSource{Data: data}, comps, 1000, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Derived.UpdatedProps == 0 {
		t.Error("numberOfStakeholders never set")
	}
	if len(data.EdgesByLabel("OWNS")) == 0 {
		t.Error("OWNS not materialized into the data graph")
	}
	// Control must exceed the trivial self-loops (60 businesses).
	if n := len(data.EdgesByLabel("CONTROLS")); n <= 60 || n != len(steps[1].Derived.NewEdges) {
		t.Errorf("CONTROLS edges = %d (step derived %d), want more than the self-loops", n, len(steps[1].Derived.NewEdges))
	}
}

// majoritySigma runs in two strata: majority CONTROLS edges first, then a
// stratified count over them.
const majoritySigma = `
	(x: Business) [: OWNS; percentage: w] (y: Business), w > 0.5 -> (x) [c: CONTROLS] (y).
	(x: Business) [: CONTROLS] (y: Business), c = count() -> (y: Business; numberOfStakeholders: c).
`

// TestMaterializeStagedBestEffort: a vadalog fault in the last stratum of
// step 2 under BestEffort keeps step 1, applies and returns the salvaged
// step 2, runs no later step, and reports the *vadalog.PartialError.
func TestMaterializeStagedBestEffort(t *testing.T) {
	defer fault.Reset()
	schema := supermodel.CompanyKG()
	comps := []Component{
		component("ownership", finance.OwnershipProgram()),
		component("majority", majoritySigma),
		component("family", finance.FamilyProgram()),
	}

	// Count the stratum probes of the first two steps with a plan that never
	// fires.
	if err := fault.Arm("vadalog/stratum", fault.Plan{Mode: fault.ModeError, After: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	probe := stagedData()
	if _, err := MaterializeStaged(schema, PGSource{Data: probe}, comps[:1], 1, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	h1 := int(fault.Hits("vadalog/stratum"))
	if _, err := MaterializeStaged(schema, PGSource{Data: probe}, comps[1:2], 2, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	if h2 := int(fault.Hits("vadalog/stratum")) - h1; h2 != 2 {
		t.Fatalf("step 2 runs %d strata, want 2", h2)
	}

	run := func(policy vadalog.FaultPolicy) (*pg.Graph, []*Result, error) {
		if err := fault.Arm("vadalog/stratum", fault.Plan{Mode: fault.ModeError, After: h1 + 2}); err != nil {
			t.Fatal(err)
		}
		data := stagedData()
		steps, err := MaterializeStaged(schema, PGSource{Data: data}, comps, 1, vadalog.Options{OnFault: policy})
		return data, steps, err
	}
	data, steps, err := run(vadalog.BestEffort)
	var pe *vadalog.PartialError
	if !errors.As(err, &pe) || pe.CompletedStrata != 1 || !strings.Contains(err.Error(), `"majority"`) {
		t.Fatalf("err = %v, want a *vadalog.PartialError salvaging one stratum of the majority step", err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want ownership and the salvaged majority step", len(steps))
	}
	if len(data.EdgesByLabel("OWNS")) == 0 {
		t.Error("step 1 was not applied")
	}
	salvaged := len(steps[1].Derived.NewEdges)
	if salvaged == 0 || len(data.EdgesByLabel("CONTROLS")) != salvaged {
		t.Errorf("salvaged step derived %d CONTROLS edges, data graph holds %d", salvaged, len(data.EdgesByLabel("CONTROLS")))
	}
	if n := len(data.NodesByLabel("Family")); n != 0 {
		t.Errorf("family ran after a partial step: %d Family nodes", n)
	}

	if _, steps, err := run(vadalog.FailFast); err == nil || steps != nil {
		t.Errorf("fail-fast: %d steps, err %v; want no steps and an error", len(steps), err)
	}
}
