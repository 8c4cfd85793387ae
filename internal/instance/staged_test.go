package instance

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/snapfile"
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

// stagingOverlay is an empty overlay over stagedData's snapshot, the staging
// area a run of several components writes into.
func stagingOverlay() *overlay.Overlay { return overlay.New(stagedData().Freeze()) }

// countLabel counts a view's nodes and edges carrying the label.
func countLabel(v pg.View, label string) (nodes, edges int) {
	v.ScanNodes(func(r *pg.NodeRow) bool {
		if slices.Contains(r.Labels, label) {
			nodes++
		}
		return true
	})
	v.ScanEdges(func(r *pg.EdgeRow) bool {
		if r.Label == label {
			edges++
		}
		return true
	})
	return nodes, edges
}

// TestMaterializeStagedValidatesEagerly: a broken component is refused before
// any step runs, so the valid component ahead of it derives nothing either.
// Syntax errors surface earlier still, when the caller parses the program.
func TestMaterializeStagedValidatesEagerly(t *testing.T) {
	if _, err := metalog.Parse(`(x: Business -> (x).`); err == nil {
		t.Error("syntax errors must surface when the component is parsed")
	}
	stage := stagingOverlay()
	comps := []Component{
		component("control", finance.ControlProgram()),
		component("recursive-star", `(x: Business) ([: CONTROLS])+ (y: Business) -> (x) [c: CONTROLS] (y).`),
	}
	steps, err := MaterializeStaged(supermodel.CompanyKG(), stage, comps, 1, vadalog.Options{})
	if err == nil || !strings.Contains(err.Error(), `"recursive-star"`) {
		t.Fatalf("decidability violation must be refused naming the component, got %v", err)
	}
	if steps != nil || stage.DeltaSize() != 0 {
		t.Errorf("a refused component let %d steps run (%d staged changes)", len(steps), stage.DeltaSize())
	}
}

// TestMaterializeStagedModelAwareness: the intensional language refers to the
// schema constructs (§1), so a program naming a label or property the schema
// does not declare is refused, with the unknown constructs sorted.
func TestMaterializeStagedModelAwareness(t *testing.T) {
	schema := supermodel.CompanyKG()
	run := func(src string) error {
		_, err := MaterializeStaged(schema, overlay.New(buildCompanyData(t).Freeze()), []Component{component("c", src)}, 1, vadalog.Options{})
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
// ownership compaction is applied to the staging overlay, so control, the
// next step, reasons over the derived OWNS edges.
func TestMaterializeStagedOwnershipThenControl(t *testing.T) {
	stage := stagingOverlay()
	comps := []Component{
		component("ownership", finance.OwnershipProgram()),
		component("control", finance.ControlProgram()),
	}
	steps, err := MaterializeStaged(supermodel.CompanyKG(), stage, comps, 1000, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].UpdatedProps == 0 {
		t.Error("numberOfStakeholders never set")
	}
	if _, n := countLabel(stage, "OWNS"); n == 0 {
		t.Error("OWNS not staged into the overlay")
	}
	// Control must exceed the trivial self-loops (60 businesses).
	if _, n := countLabel(stage, "CONTROLS"); n <= 60 || n != steps[1].NewEdges {
		t.Errorf("CONTROLS edges = %d (step derived %d), want more than the self-loops", n, steps[1].NewEdges)
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
	probe := stagingOverlay()
	if _, err := MaterializeStaged(schema, probe, comps[:1], 1, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	h1 := int(fault.Hits("vadalog/stratum"))
	if _, err := MaterializeStaged(schema, probe, comps[1:2], 2, vadalog.Options{}); err != nil {
		t.Fatal(err)
	}
	if h2 := int(fault.Hits("vadalog/stratum")) - h1; h2 != 2 {
		t.Fatalf("step 2 runs %d strata, want 2", h2)
	}

	run := func(policy vadalog.FaultPolicy) (*overlay.Overlay, []Report, error) {
		if err := fault.Arm("vadalog/stratum", fault.Plan{Mode: fault.ModeError, After: h1 + 2}); err != nil {
			t.Fatal(err)
		}
		stage := stagingOverlay()
		steps, err := MaterializeStaged(schema, stage, comps, 1, vadalog.Options{OnFault: policy})
		return stage, steps, err
	}
	stage, steps, err := run(vadalog.BestEffort)
	var pe *vadalog.PartialError
	if !errors.As(err, &pe) || pe.CompletedStrata != 1 || !strings.Contains(err.Error(), `"majority"`) {
		t.Fatalf("err = %v, want a *vadalog.PartialError salvaging one stratum of the majority step", err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want ownership and the salvaged majority step", len(steps))
	}
	if _, n := countLabel(stage, "OWNS"); n == 0 {
		t.Error("step 1 was not applied")
	}
	salvaged := steps[1].NewEdges
	if _, n := countLabel(stage, "CONTROLS"); salvaged == 0 || n != salvaged {
		t.Errorf("salvaged step derived %d CONTROLS edges, the overlay holds %d", salvaged, n)
	}
	if n, _ := countLabel(stage, "Family"); n != 0 {
		t.Errorf("family ran after a partial step: %d Family nodes", n)
	}

	if _, steps, err := run(vadalog.FailFast); err == nil || steps != nil {
		t.Errorf("fail-fast: %d steps, err %v; want no steps and an error", len(steps), err)
	}
}

// stagedDigest is the SHA-256 of the JSON of stagedData after staging
// ownership then control at instance OID 1, recorded when a staged run wrote
// back into a mutable *pg.Graph through ApplyToPG.
const stagedDigest = "a7b10fd697cfcdbca2087084d61634384b6e1cc4bac3294fdcaf221165bce4b1"

// TestMaterializeStagedNeedsWriteBack: staging two components reads the first
// one's derivations back, so each step is written into the overlay the next
// one reads — over a snapshot taken in memory or read back from a snapshot
// file. Both stage exactly the graph the mutable write-back did, and so does
// running each component with Materialize and applying it to a mutable graph
// with ApplyToPG. A failed write into the overlay comes back typed.
func TestMaterializeStagedNeedsWriteBack(t *testing.T) {
	defer fault.Reset()
	schema := supermodel.CompanyKG()
	comps := []Component{
		component("ownership", finance.OwnershipProgram()),
		component("control", finance.ControlProgram()),
	}
	digest := func(t *testing.T, v pg.View) {
		t.Helper()
		h := sha256.New()
		if err := pg.WriteJSON(h, v); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != stagedDigest {
			t.Errorf("%T staged graph digest %s, want %s", v, got, stagedDigest)
		}
	}
	path := filepath.Join(t.TempDir(), "staged.snap")
	if _, err := snapfile.WriteFile(path, stagedData().Freeze(), snapfile.BuildInfo{Tool: "instance test"}); err != nil {
		t.Fatal(err)
	}
	sf, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, tc := range []struct {
		name  string
		stage *overlay.Overlay
	}{
		{"overlay", stagingOverlay()},
		{"overlay over snapfile", overlay.New(sf.Frozen)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps, err := MaterializeStaged(schema, tc.stage, comps, 1, vadalog.Options{})
			if err != nil || len(steps) != 2 {
				t.Fatalf("err = %v, %d steps", err, len(steps))
			}
			if _, n := countLabel(tc.stage, "CONTROLS"); n <= 60 || n != steps[1].NewEdges {
				t.Errorf("CONTROLS edges = %d (step derived %d), want more than the self-loops", n, steps[1].NewEdges)
			}
			digest(t, tc.stage)
		})
	}

	t.Run("ApplyToPG", func(t *testing.T) {
		g := stagedData()
		for i, c := range comps {
			d, err := NewDictionary(schema)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Materialize(d, PGSource{Data: g}, c.Sigma, 1+int64(i), vadalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.ApplyToPG(g); err != nil {
				t.Fatal(err)
			}
		}
		digest(t, g)
	})

	t.Run("apply fault", func(t *testing.T) {
		if err := fault.Arm("overlay/apply", fault.Plan{Mode: fault.ModeError}); err != nil {
			t.Fatal(err)
		}
		stage := stagingOverlay()
		steps, err := MaterializeStaged(schema, stage, comps, 1, vadalog.Options{})
		var ie *fault.InjectedError
		if !errors.As(err, &ie) || ie.Site != "overlay/apply" || steps != nil {
			t.Fatalf("err = %v, %d steps; want nil steps and the *fault.InjectedError of overlay/apply", err, len(steps))
		}
		if fault.Fired("overlay/apply") != 1 || stage.DeltaSize() != 0 {
			t.Errorf("apply fired %d times, %d changes staged; want 1 and none", fault.Fired("overlay/apply"), stage.DeltaSize())
		}
	})
}
