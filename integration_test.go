package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/graphstats"
	"repro/internal/gsl"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/testutil"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// TestFullLifecycle walks the complete KGModel methodology end to end, the
// way the paper's data engineer would: design, deploy, generate, validate,
// materialize, analyze, serialize, reload, re-validate.
func TestFullLifecycle(t *testing.T) {
	// 1. Design (Figure 4) and serialize the design through GSL.
	schema := supermodel.CompanyKG()
	text := gsl.Serialize(schema)
	reparsed, err := gsl.Parse(text)
	if err != nil {
		t.Fatalf("GSL round trip: %v", err)
	}

	// 2. Deploy to every target family.
	relRes, err := models.TranslateSchema(reparsed, "relational", "")
	if err != nil {
		t.Fatal(err)
	}
	relView, err := models.ReadRelationalSchema(relRes.Dict, relRes.Mapping.TargetOID)
	if err != nil {
		t.Fatal(err)
	}
	pgRes, err := models.TranslateSchema(reparsed, "pg", "multi-label")
	if err != nil {
		t.Fatal(err)
	}
	pgView, err := models.ReadPGSchema(pgRes.Dict, pgRes.Mapping.TargetOID)
	if err != nil {
		t.Fatal(err)
	}
	ddl, constraints := models.EmitSQL(relView), models.EmitPGConstraints(pgView)
	rdfs := models.EmitRDFS(reparsed)
	for name, artifact := range map[string]string{"ddl": ddl, "constraints": constraints, "rdfs": rdfs} {
		if len(artifact) < 200 {
			t.Errorf("%s artifact suspiciously small: %d bytes", name, len(artifact))
		}
	}

	// 3. Generate a register extract and validate it against the deployed
	// PG schema before loading.
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(150, 99))
	data := topo.CompanyKG()
	if violations := models.ValidateInstance(data, pgView); len(violations) != 0 {
		t.Fatalf("generated instance must conform: %v", violations[:min(3, len(violations))])
	}

	// 4. Materialize the intensional components (Algorithm 2, staged).
	comps := []instance.Component{
		{Name: "ownership", Sigma: metalog.MustParse(finance.OwnershipProgram())},
		{Name: "control", Sigma: metalog.MustParse(finance.ControlProgram())},
		{Name: "family", Sigma: metalog.MustParse(finance.FamilyProgram())},
	}
	staged := overlay.New(data.Freeze())
	steps, err := instance.MaterializeStaged(reparsed, staged, comps, 10, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var entities, edges, props int
	for _, s := range steps {
		entities += s.NewEntities
		edges += s.NewEdges
		props += s.UpdatedProps
	}
	if edges == 0 || props == 0 || entities == 0 {
		t.Fatalf("materialization derived too little: %d/%d/%d", entities, edges, props)
	}

	// 5. The enriched instance still conforms to the schema (intensional
	// constructs included — they are part of Figure 6).
	if violations := models.ValidateInstance(staged, pgView); len(violations) != 0 {
		t.Errorf("enriched instance must still conform; first: %v", violations[0])
	}

	// 6. Analyze: the derived CONTROLS projection has the expected
	// reflexive + derived structure.
	controls := 0
	staged.ScanEdges(func(e *pg.EdgeRow) bool {
		if e.Label == "CONTROLS" {
			controls++
		}
		return true
	})
	if controls <= 150 {
		t.Errorf("CONTROLS edges = %d, want > 150 self-loops", controls)
	}

	// 7. Serialize the enriched KG and reload it losslessly.
	var buf bytes.Buffer
	if err := pg.WriteJSON(&buf, staged); err != nil {
		t.Fatal(err)
	}
	reloaded, err := pg.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.NumNodes() != staged.NumNodes() || reloaded.NumEdges() != staged.NumEdges() {
		t.Fatalf("serialization lost data: %d/%d vs %d/%d",
			reloaded.NumNodes(), reloaded.NumEdges(), staged.NumNodes(), staged.NumEdges())
	}
	if violations := models.ValidateInstance(reloaded, pgView); len(violations) != 0 {
		t.Errorf("reloaded instance must conform; first: %v", violations[0])
	}

	// 8. Statistics still have the §2.1 shape on the ground shareholding
	// projection.
	stats := graphstats.Compute(topo.Shareholding())
	if stats.SCCAvgSize > 1.1 || stats.AvgClusteringCoefficient > 0.05 {
		t.Errorf("statistics shape off: %+v", stats)
	}

	// 9. N-Triples export for the triplestore family.
	nt := models.EmitNTriples(staged, "urn:companykg")
	if !strings.Contains(nt, "urn:companykg/rel/CONTROLS") {
		t.Errorf("triplestore export misses derived edges")
	}
}

// TestRelationalToPGCircle: relational rows in, reasoning at super-model
// level, property graph out — the exported graph validates against the
// translated PG schema.
func TestRelationalToPGCircle(t *testing.T) {
	str, flt := value.Str, value.FloatV
	tables := map[string][]instance.Row{}
	for _, code := range []string{"A", "B", "C"} {
		tables["Person"] = append(tables["Person"], instance.Row{"fiscalCode": str(code)})
		tables["LegalPerson"] = append(tables["LegalPerson"], instance.Row{
			"fiscalCode": str(code), "businessName": str("biz" + code), "legalNature": str("spa"),
		})
		tables["Business"] = append(tables["Business"], instance.Row{
			"fiscalCode": str(code), "shareholdingCapital": flt(100),
		})
	}
	tables["OWNS"] = []instance.Row{
		{"fk_owns_src_fiscalCode": str("A"), "fk_owns_dst_fiscalCode": str("B"), "percentage": flt(0.9)},
		{"fk_owns_src_fiscalCode": str("B"), "fk_owns_dst_fiscalCode": str("C"), "percentage": flt(0.8)},
	}
	src := instance.RelationalSource{Inst: &instance.RelationalInstance{Tables: tables}}
	dict, err := instance.NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	mat, err := instance.Materialize(dict, src, metalog.MustParse(finance.ControlProgram()), 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := mat.ExportPG()
	// A controls B, B controls C, A controls C (transitively) + 3 self.
	if n := len(out.EdgesByLabel("CONTROLS")); n != 6 {
		t.Errorf("CONTROLS edges = %d, want 6", n)
	}
	res, err := models.TranslateSchema(supermodel.CompanyKG(), "pg", "multi-label")
	if err != nil {
		t.Fatal(err)
	}
	view, err := models.ReadPGSchema(res.Dict, res.Mapping.TargetOID)
	if err != nil {
		t.Fatal(err)
	}
	if violations := models.ValidateInstance(out, view); len(violations) != 0 {
		t.Errorf("exported graph must conform; first: %v", violations[0])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStreamIngest10MSmoke pushes the streaming data plane through a
// ~10M-edge load end to end: two-pass generation, sharded parallel ingest,
// and the FrozenFromColumns validation wall, without ever materializing the
// mutable graph. It is the one check at the paper's scale that runs on every
// `go test ./...`; -short skips it, and it skips under the race detector, whose memory
// multiplier does not fit this scale (the concurrent-ingest race coverage
// runs at small scale in internal/pg instead).
func TestStreamIngest10MSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-edge smoke leg skipped in -short mode")
	}
	if testutil.RaceEnabled {
		t.Skip("10M-edge smoke leg does not fit under the race detector")
	}
	cfg := fingraph.Config{
		Companies:              3_200_000,
		MeanShareholders:       2.0,
		MajorityFraction:       0.6,
		LocalFraction:          0.55,
		CompanyHolderFraction:  0.35,
		PreferentialAttachment: 0.6,
		CrossHoldingFraction:   0.002,
		Seed:                   20260809,
	}
	ld := pg.NewBulkLoader(8)
	stats, err := fingraph.StreamTopology(cfg, fingraph.StreamOptions{}, ld)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	frozen, err := ld.Finish()
	if err != nil {
		t.Fatalf("bulk finish: %v", err)
	}
	if stats.Edges < 9_000_000 {
		t.Fatalf("smoke leg produced only %d edges, want ~10M", stats.Edges)
	}
	if frozen.NumNodes() != stats.Persons+stats.Companies || frozen.NumEdges() != stats.Edges {
		t.Fatalf("snapshot (%d nodes, %d edges) disagrees with stream stats %+v",
			frozen.NumNodes(), frozen.NumEdges(), stats)
	}
	// Spot-check the arithmetic OID layout: person index 0 is OID 1,
	// company index 0 is OID persons+1, with their synthetic fiscal codes.
	if n := frozen.Node(pg.OID(1)); n == nil || n.Props["fiscalCode"].S != "PF00000000" {
		t.Fatalf("person 0 = %+v", n)
	}
	if n := frozen.Node(pg.OID(stats.Persons + 1)); n == nil || n.Props["fiscalCode"].S != "CO00000000" {
		t.Fatalf("company 0 = %+v", n)
	}
	// Column-only degree check (no edge is built): every edge appears in
	// exactly one out-window.
	total := 0
	for i := 0; i < frozen.NumNodes(); i++ {
		total += frozen.OutDegree(pg.OID(i + 1))
	}
	if total != stats.Edges {
		t.Fatalf("out-degrees sum to %d, want %d", total, stats.Edges)
	}
}
