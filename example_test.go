package repro_test

// The paper's walk-throughs as runnable examples, each pinned to its output:
//
//	go test -run Example -v .
//
// A check a walk-through makes (three control computations agreeing, a
// maintained relation equal to a fresh run) is printed, never asserted
// aside, and so is an error: either changes the output and fails the pin.

import (
	"context"
	"fmt"

	"repro/internal/finance"
	"repro/internal/fingraph"
	"repro/internal/gsl"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/models"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// Example_quickstart designs a small Knowledge Graph in GSL, writes an
// intensional component in MetaLog, deploys the design to SQL, and
// materializes the derived knowledge over a data instance — the full KGModel
// methodology, one package per step: gsl (design), models (deploy), instance
// (materialize).
func Example_quickstart() {
	// 1. Design the extensional component in the textual GSL dialect
	//    (Section 3 of the paper; kgse renders the same design visually).
	schema, err := gsl.Parse(`schema SupplyChain oid 42 {
		node Company {
			vat: string @id @unique
			country: string
		}
		node Product {
			sku: string @id
			price: float @range(0, 1000000)
		}
		edge SUPPLIES (Company 0..N -> 0..N Company) {
			volume: float
		}
		edge MAKES (Company 0..N -> 1..1 Product)
		intensional edge DEPENDS_ON (Company 0..N -> 0..N Company)
	}`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("== GSL design ==")
	fmt.Println(gsl.RenderText(schema))

	// 2. Write the intensional component: DEPENDS_ON is the transitive
	//    closure of supply relationships (a MetaLog path pattern).
	dependencies, err := metalog.Parse(`
		(x: Company) ([: SUPPLIES])+ (y: Company) -> (x) [d: DEPENDS_ON] (y).
	`)
	if err != nil {
		fmt.Println(err)
		return
	}

	// 3. Deploy: SSST translates the super-schema into the relational model
	//    and emits DDL (Section 5).
	rel, err := models.TranslateSchema(schema, "relational", "")
	if err != nil {
		fmt.Println(err)
		return
	}
	view, err := models.ReadRelationalSchema(rel.Dict, rel.Mapping.TargetOID)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("== Relational deployment (SSST + DDL emitter) ==")
	fmt.Print(models.EmitSQL(view))

	// 4. Build a data instance and materialize (Algorithm 2, Section 6).
	data := pg.New()
	company := func(vat, country string) pg.OID {
		return data.AddNode([]string{"Company"}, pg.Props{
			"vat": value.Str(vat), "country": value.Str(country),
		}).ID
	}
	acme := company("IT001", "IT")
	bolt := company("DE002", "DE")
	chip := company("TW003", "TW")
	data.MustAddEdge(bolt, acme, "SUPPLIES", pg.Props{"volume": value.FloatV(100)})
	data.MustAddEdge(chip, bolt, "SUPPLIES", pg.Props{"volume": value.FloatV(60)})

	//    The component is checked against the design first: a label or
	//    property the schema does not declare is refused.
	comps := []instance.Component{{Name: "dependencies", Sigma: dependencies}}
	steps, err := instance.MaterializeStaged(schema, instance.PGSource{Data: data}, comps, 1, vadalog.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("== Materialization: %d DEPENDS_ON edges derived ==\n", len(steps[0].Derived.NewEdges))
	names := map[pg.OID]string{}
	for _, n := range data.NodesByLabel("Company") {
		names[n.ID] = n.Props["vat"].S
	}
	for _, e := range data.EdgesByLabel("DEPENDS_ON") {
		fmt.Printf("  %s depends on %s\n", names[e.To], names[e.From])
	}

	// Output:
	// == GSL design ==
	// schema SupplyChain (oid 42): 2 nodes (0 intensional), 3 edges (1 intensional), 0 generalizations
	// [N] Company
	//     -o* vat: string {unique}
	//     -o country: string
	// [N] Product
	//     -o* sku: string
	//     -o price: float {range(0,1e+06)}
	// --> SUPPLIES: Company [0..N] Company [0..N]
	//     -o volume: float
	// --> MAKES: Company [0..N] Product [1..1]
	// ~~> DEPENDS_ON: Company [0..N] Company [0..N]
	//
	// == Relational deployment (SSST + DDL emitter) ==
	// -- Generated by KGModel SSST (relational model, Figure 8)
	// CREATE TABLE "Company" (
	//   "country" TEXT NOT NULL,
	//   "vat" TEXT NOT NULL,
	//   PRIMARY KEY ("vat")
	// );
	//
	// -- DEPENDS_ON is intensional: populated by the reasoning process
	// CREATE TABLE "DEPENDS_ON" (
	//   "fk_depends_on_dst_vat" TEXT,
	//   "fk_depends_on_src_vat" TEXT,
	//   CONSTRAINT "FK_DEPENDS_ON_DST" FOREIGN KEY ("fk_depends_on_dst_vat") REFERENCES "Company" ("vat"),
	//   CONSTRAINT "FK_DEPENDS_ON_SRC" FOREIGN KEY ("fk_depends_on_src_vat") REFERENCES "Company" ("vat")
	// );
	//
	// CREATE TABLE "Product" (
	//   "price" DOUBLE PRECISION NOT NULL,
	//   "sku" TEXT NOT NULL,
	//   "makes_vat" TEXT,
	//   PRIMARY KEY ("sku"),
	//   CONSTRAINT "MAKES" FOREIGN KEY ("makes_vat") REFERENCES "Company" ("vat")
	// );
	//
	// CREATE TABLE "SUPPLIES" (
	//   "volume" DOUBLE PRECISION NOT NULL,
	//   "fk_supplies_dst_vat" TEXT,
	//   "fk_supplies_src_vat" TEXT,
	//   CONSTRAINT "FK_SUPPLIES_DST" FOREIGN KEY ("fk_supplies_dst_vat") REFERENCES "Company" ("vat"),
	//   CONSTRAINT "FK_SUPPLIES_SRC" FOREIGN KEY ("fk_supplies_src_vat") REFERENCES "Company" ("vat")
	// );
	//
	// == Materialization: 3 DEPENDS_ON edges derived ==
	//   IT001 depends on DE002
	//   IT001 depends on TW003
	//   DE002 depends on TW003
}

// Example_companyKG is the Bank of Italy Company KG walk-through (Sections
// 3.3, 5 and 6 of the paper): the Figure 4 design, its translations into the
// property-graph and relational models (Figures 6 and 8), the enforceable
// deployment artifacts, and the materialization of the intensional
// components over a synthetic register extract.
func Example_companyKG() {
	// The Figure 4 super-schema, built with the design decisions narrated in
	// Section 3.3 (HOLDS/BELONGS_TO decoupling, total/disjoint person
	// generalization, intensional OWNS/CONTROLS/Family constructs, ...).
	schema := supermodel.CompanyKG()
	fmt.Println("== Figure 4: the Company KG design ==")
	fmt.Println(gsl.RenderText(schema))

	// Figure 6: the property-graph translation with multi-label tagging.
	pgRes, err := models.TranslateSchema(schema, "pg", "multi-label")
	if err != nil {
		fmt.Println(err)
		return
	}
	pgView, err := models.ReadPGSchema(pgRes.Dict, pgRes.Mapping.TargetOID)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("== Figure 6: PG schema — %d node types, %d relationship types ==\n", len(pgView.Nodes), len(pgView.Rels))
	for _, n := range pgView.Nodes {
		fmt.Printf("  %v\n", n.Labels)
	}

	// Figure 8: the relational translation (table-per-class), with DDL.
	relRes, err := models.TranslateSchema(schema, "relational", "")
	if err != nil {
		fmt.Println(err)
		return
	}
	relView, err := models.ReadRelationalSchema(relRes.Dict, relRes.Mapping.TargetOID)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("== Figure 8: relational schema as DDL (excerpt) ==")
	printFirstLines(models.EmitSQL(relView), 24)

	// RDF-S for triplestore targets — generalizations survive natively.
	fmt.Println("== RDF-S deployment (excerpt) ==")
	printFirstLines(models.EmitRDFS(schema), 8)

	// The intensional components of Section 2.1, in dependency order:
	// ownership compaction feeds control, which feeds the families.
	comps := []instance.Component{
		{Name: "ownership", Sigma: metalog.MustParse(finance.OwnershipProgram())},
		{Name: "control", Sigma: metalog.MustParse(finance.ControlProgram())},
		{Name: "family", Sigma: metalog.MustParse(finance.FamilyProgram())},
	}

	// A synthetic register extract standing in for the Chambers of Commerce
	// data, and the full Algorithm 2 materialization.
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(300, 2022))
	data := topo.CompanyKG()
	fmt.Printf("== Register extract: %d nodes, %d edges ==\n", data.NumNodes(), data.NumEdges())

	steps, err := instance.MaterializeStaged(schema, instance.PGSource{Data: data}, comps, 1, vadalog.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, step := range steps {
		fmt.Printf("  %-10s -> %d entities, %d edges, %d properties\n",
			comps[i].Name, len(step.Derived.NewEntities), len(step.Derived.NewEdges), step.Derived.UpdatedProps)
	}
	fmt.Printf("== Materialized intensional component ==\n")
	for _, label := range []string{"OWNS", "CONTROLS", "BELONGS_TO_FAMILY", "IS_RELATED_TO", "FAMILY_OWNS"} {
		fmt.Printf("  %-18s %d edges\n", label, len(data.EdgesByLabel(label)))
	}
	fmt.Printf("  %-18s %d nodes\n", "Family", len(data.NodesByLabel("Family")))

	// Output:
	// == Figure 4: the Company KG design ==
	// schema CompanyKG (oid 123): 11 nodes (1 intensional), 11 edges (5 intensional), 4 generalizations
	// [N] Person
	//     -o* fiscalCode: string {unique}
	// [N] PhysicalPerson
	//     -o name: string
	//     -o gender: string {enum(female,male,other)}
	//     -o? birthDate: date
	// [N] LegalPerson
	//     -o businessName: string
	//     -o legalNature: string
	//     -o? website: string
	// [N] Place
	//     -o* street: string
	//     -o* streetNumber: string
	//     -o* city: string
	//     -o* postalCode: string
	//     -o? gpsCoordinates: string
	// [N] Business
	//     -o shareholdingCapital: float
	//     -o? numberOfStakeholders: int ~
	// [N] NonBusiness
	//     -o isGovernmental: bool
	// [N] PublicListedCompany
	//     -o stockExchange: string
	//     -o? tickerSymbol: string
	// [N] Share
	//     -o* shareCode: string
	//     -o percentage: float {range(0,1)}
	// [N] StockShare
	//     -o numberOfStocks: int
	// [N] BusinessEvent
	//     -o* eventCode: string
	//     -o type: string {enum(merger,acquisition,split)}
	//     -o date: date
	// [N~] Family
	//     -o familyName: string
	// <=! PersonKind: LegalPerson, PhysicalPerson of Person
	// <=! LegalPersonKind: Business, NonBusiness of LegalPerson
	// <-! BusinessKind: PublicListedCompany of Business
	// <-! ShareKind: StockShare of Share
	// --> RESIDES: Person [0..1] Place [0..N]
	//     -o? since: date
	// --> HOLDS: Person [0..N] Share [1..N]
	//     -o right: string {enum(ownership,bare ownership,usufruct)}
	//     -o percentage: float
	// --> BELONGS_TO: Share [1..1] Business [0..N]
	// --> HAS_ROLE: Person [0..N] LegalPerson [0..N]
	//     -o role: string
	//     -o? since: date
	// --> REPRESENTS: PhysicalPerson [0..N] LegalPerson [0..N]
	// --> PARTICIPATES: Business [0..N] BusinessEvent [1..N]
	//     -o role: string
	// ~~> OWNS: Person [0..N] Business [0..N]
	//     -o percentage: float
	// ~~> CONTROLS: Person [0..N] Business [0..N]
	// ~~> IS_RELATED_TO: PhysicalPerson [0..N] PhysicalPerson [0..N]
	//     -o? kind: string
	// ~~> BELONGS_TO_FAMILY: PhysicalPerson [0..1] Family [1..N]
	// ~~> FAMILY_OWNS: Family [0..N] Business [0..N]
	//
	// == Figure 6: PG schema — 11 node types, 49 relationship types ==
	//   [Business LegalPerson Person PublicListedCompany]
	//   [Business LegalPerson Person]
	//   [BusinessEvent]
	//   [Family]
	//   [LegalPerson NonBusiness Person]
	//   [LegalPerson Person]
	//   [Person PhysicalPerson]
	//   [Person]
	//   [Place]
	//   [Share StockShare]
	//   [Share]
	// == Figure 8: relational schema as DDL (excerpt) ==
	// -- Generated by KGModel SSST (relational model, Figure 8)
	// -- BELONGS_TO_FAMILY is intensional: populated by the reasoning process
	// CREATE TABLE "BELONGS_TO_FAMILY" (
	//   "fk_belongs_to_family_src_fiscalCode" TEXT,
	//   CONSTRAINT "FK_BELONGS_TO_FAMILY_SRC" FOREIGN KEY ("fk_belongs_to_family_src_fiscalCode") REFERENCES "PhysicalPerson" ("fiscalCode")
	// );
	//
	// CREATE TABLE "Business" (
	//   "fiscalCode" TEXT NOT NULL,
	//   "numberOfStakeholders" BIGINT,
	//   "shareholdingCapital" DOUBLE PRECISION NOT NULL,
	//   PRIMARY KEY ("fiscalCode"),
	//   CONSTRAINT "FK_ISA_Business_LegalPerson" FOREIGN KEY ("fiscalCode") REFERENCES "LegalPerson" ("fiscalCode")
	// );
	//
	// CREATE TABLE "BusinessEvent" (
	//   "date" DATE NOT NULL,
	//   "eventCode" TEXT NOT NULL,
	//   "type" TEXT NOT NULL,
	//   PRIMARY KEY ("eventCode")
	// );
	//
	// -- CONTROLS is intensional: populated by the reasoning process
	// CREATE TABLE "CONTROLS" (
	//   ...
	// == RDF-S deployment (excerpt) ==
	// @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
	// @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
	// @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
	// @prefix kg: <urn:kgmodel:CompanyKG#> .
	//
	// kg:Person a rdfs:Class .
	// kg:Person_fiscalCode a rdf:Property ; rdfs:domain kg:Person ; rdfs:range xsd:string .
	// kg:PhysicalPerson a rdfs:Class .
	//   ...
	// == Register extract: 1805 nodes, 1846 edges ==
	//   ownership  -> 0 entities, 908 edges, 300 properties
	//   control    -> 0 entities, 372 edges, 0 properties
	//   family     -> 10 entities, 35123 edges, 10 properties
	// == Materialized intensional component ==
	//   OWNS               908 edges
	//   CONTROLS           372 edges
	//   BELONGS_TO_FAMILY  582 edges
	//   IS_RELATED_TO      34334 edges
	//   FAMILY_OWNS        207 edges
	//   Family             10 nodes
}

// printFirstLines prints the first n lines of s and, if s goes on, an
// ellipsis line.
func printFirstLines(s string, n int) {
	lines := 0
	for i := 0; i < len(s); i++ {
		fmt.Print(string(s[i]))
		if s[i] == '\n' {
			lines++
			if lines >= n {
				fmt.Println("  ...")
				return
			}
		}
	}
}

// Example_control is company control (Examples 4.1 and 4.2 of the paper):
// the same intensional component expressed three ways — MetaLog over the
// property graph, plain Vadalog over extracted relations, and a native Go
// worklist — all agreeing on a synthetic scale-free shareholding network,
// including the joint-control cases a plain transitive closure would miss.
func Example_control() {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(2000, 7))
	g := topo.Shareholding()
	fmt.Printf("shareholding graph: %d nodes, %d OWNS edges\n\n", g.NumNodes(), g.NumEdges())

	// 1. MetaLog (Example 4.1), through MTV and the Vadalog engine, with the
	//    derived CONTROLS edges materialized back into the graph.
	prog, err := metalog.Parse(finance.ControlEntityProgram())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("MetaLog program (Example 4.1):")
	fmt.Print(prog.String())
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		fmt.Println(err)
		return
	}
	metalogPairs := 0
	for _, e := range g.EdgesByLabel("CONTROLS") {
		if e.From != e.To {
			metalogPairs++
		}
	}
	fmt.Printf("\nMetaLog pipeline:      %d control pairs (non-self)\n", metalogPairs)

	// 2. Plain Vadalog (Example 4.2) over company/owns relations.
	own := finance.BuildOwnership(topo)
	db := vadalog.NewDatabase()
	for _, e := range own.Entities {
		db.MustAddFact("company", value.IntV(int64(e)))
	}
	for owner, stakes := range own.Out {
		for _, st := range stakes {
			db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
		}
	}
	vres, err := vadalog.RunInPlace(vadalog.MustParse(finance.ControlVadalog()), db, vadalog.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	nonSelf := 0
	for _, f := range vres.Output("controls") {
		if !value.Equal(f[0], f[1]) {
			nonSelf++
		}
	}
	fmt.Printf("Vadalog (Example 4.2): %d control pairs (non-self)\n", nonSelf)

	// 3. Native worklist baseline.
	pairs := finance.NativeControl(own, false)
	fmt.Printf("native baseline:       %d control pairs (non-self)\n", len(pairs))

	// Company groups from the control relation (Section 2.1: "virtual
	// concepts denoting a center of interest").
	groups := finance.Groups(pairs)
	largest := finance.Group{}
	for _, grp := range groups {
		if len(grp.Controlled) > len(largest.Controlled) {
			largest = grp
		}
	}
	fmt.Printf("\ncompany groups: %d; largest controls %d companies (ultimate controller: entity %d)\n",
		len(groups), len(largest.Controlled), largest.Ultimate)

	// Output:
	// shareholding graph: 5976 nodes, 5907 OWNS edges
	//
	// MetaLog program (Example 4.1):
	// (x : Entity) -> (x) [c : CONTROLS] (x).
	// (x : Entity) [: CONTROLS] (z : Entity) [: OWNS; percentage: w] (y : Entity), (v = sum(w, <z>)), (v > 0.5) -> (x) [c : CONTROLS] (y).
	//
	// MetaLog pipeline:      2174 control pairs (non-self)
	// Vadalog (Example 4.2): 2174 control pairs (non-self)
	// native baseline:       2174 control pairs (non-self)
	//
	// company groups: 1284; largest controls 27 companies (ultimate controller: entity -77)
}

// Example_closeLinks is close links (Section 2.1 of the paper): the ECB
// Guideline 2018/876 notion of financial conflict of interest — two entities
// are close-linked when one holds at least 20% of the other's capital,
// directly or indirectly, or when a common third party holds at least 20% of
// both. The direct part runs as a declarative MetaLog program; the indirect
// part computes integrated ownership (the total share owned through the
// whole graph) natively and shows the links that only the indirect
// computation finds.
func Example_closeLinks() {
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(1500, 31))
	g := topo.Shareholding()
	own := finance.BuildOwnership(topo)
	fmt.Printf("shareholding graph: %d nodes, %d OWNS edges\n\n", g.NumNodes(), g.NumEdges())

	// Direct close links via MetaLog (threshold on single edges and common
	// direct parents).
	prog, err := metalog.Parse(finance.CloseLinksDirectProgram())
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := metalog.Reason(context.Background(), prog, g, vadalog.Options{}); err != nil {
		fmt.Println(err)
		return
	}
	directPairs := map[[2]int64]bool{}
	for _, e := range g.EdgesByLabel("CLOSE_LINK") {
		a, b := int64(e.From), int64(e.To)
		if a > b {
			a, b = b, a
		}
		directPairs[[2]int64{a, b}] = true
	}
	fmt.Printf("direct close links (MetaLog):      %6d undirected pairs\n", len(directPairs))

	// Full close links over integrated ownership.
	links := finance.CloseLinks(own, own.Entities, 0.2, 1e-9, 100)
	fmt.Printf("full close links (integrated own): %6d undirected pairs\n", len(links))

	// How much the indirect computation adds: integrated ownership follows
	// chains like a -> b -> c where each step is below the threshold on its
	// own path product but the accumulated share still crosses 20%.
	fmt.Printf("\nindirect-only links: %d (the conflict-of-interest cases a direct check misses)\n",
		len(links)-len(directPairs))

	// A concrete integrated-ownership vector for the busiest investor, the
	// lowest entity id among those with the most direct stakes.
	busiest, best := 0, 0
	for _, e := range own.Entities {
		if n := len(own.Out[e]); n > best {
			busiest, best = e, n
		}
	}
	io := finance.IntegratedOwnership(own, busiest, 1e-9, 100)
	over := 0
	for _, v := range io {
		if v >= 0.2 {
			over++
		}
	}
	fmt.Printf("\nbusiest investor (entity %d, %d direct stakes): integrated ownership reaches %d companies, %d above the 20%% threshold\n",
		busiest, best, len(io), over)

	// Output:
	// shareholding graph: 4296 nodes, 4224 OWNS edges
	//
	// direct close links (MetaLog):        4984 undirected pairs
	// full close links (integrated own):  10302 undirected pairs
	//
	// indirect-only links: 5318 (the conflict-of-interest cases a direct check misses)
	//
	// busiest investor (entity 0, 76 direct stakes): integrated ownership reaches 194 companies, 107 above the 20% threshold
}

// Example_modelIndependence is model independence end to end (the central
// promise of the paper): the same intensional component Σ, written once in
// MetaLog against the super-schema, materializes over a *relational*
// deployment of the Company KG — rows of the Figure 8 table-per-class schema
// — and the enriched instance exports as a property graph. No rule was
// rewritten for either model: Algorithm 2 lifts the data into the instance
// super-constructs, reasons at super-model level, and flushes back.
func Example_modelIndependence() {
	schema := supermodel.CompanyKG()
	dict, err := instance.NewDictionary(schema)
	if err != nil {
		fmt.Println(err)
		return
	}

	// A relational deployment: table-per-class rows (each business appears
	// in Person, LegalPerson and Business, joined on fiscalCode) and an OWNS
	// junction table with FK columns — exactly what the Figure 8 DDL stores.
	str, flt := value.Str, value.FloatV
	tables := map[string][]instance.Row{}
	companies := []struct {
		code, name string
	}{
		{"IT0001", "Alfa Holding"},
		{"IT0002", "Beta Industrie"},
		{"IT0003", "Gamma Logistica"},
		{"IT0004", "Delta Retail"},
		{"IT0005", "Epsilon Energia"},
	}
	for _, c := range companies {
		tables["Person"] = append(tables["Person"], instance.Row{"fiscalCode": str(c.code)})
		tables["LegalPerson"] = append(tables["LegalPerson"], instance.Row{
			"fiscalCode": str(c.code), "businessName": str(c.name), "legalNature": str("spa"),
		})
		tables["Business"] = append(tables["Business"], instance.Row{
			"fiscalCode": str(c.code), "shareholdingCapital": flt(1_000_000),
		})
	}
	owns := func(x, y string, pct float64) instance.Row {
		return instance.Row{
			"fk_owns_src_fiscalCode": str(x),
			"fk_owns_dst_fiscalCode": str(y),
			"percentage":             flt(pct),
		}
	}
	tables["OWNS"] = []instance.Row{
		owns("IT0001", "IT0002", 0.70), // Alfa majority-owns Beta
		owns("IT0001", "IT0003", 0.35), // ... and jointly with Beta ...
		owns("IT0002", "IT0003", 0.30), // ... controls Gamma
		owns("IT0003", "IT0004", 0.60), // Gamma majority-owns Delta
		owns("IT0004", "IT0005", 0.10), // Delta holds a sliver of Epsilon
	}

	// Σ: company control, Example 4.1, written once at super-model level.
	sigma := metalog.MustParse(`
		(x: Business) -> (x) [c: CONTROLS] (x).
		(x: Business) [: CONTROLS] (z: Business) [: OWNS; percentage: w] (y: Business),
			v = sum(w, <z>), v > 0.5
			-> (x) [c: CONTROLS] (y).
	`)

	res, err := instance.Materialize(dict,
		instance.RelationalSource{Inst: &instance.RelationalInstance{Tables: tables}},
		sigma, 555, vadalog.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("instance super-constructs: %d entities, %d edges (ground + derived)\n",
		len(res.Loaded.Entities), len(res.Loaded.Edges))
	fmt.Printf("derived %d CONTROLS edges\n\n", len(res.Derived.NewEdges))

	// Export the enriched instance as a property graph: the full
	// relational -> super-model -> reasoning -> property-graph circle.
	out := res.ExportPG()
	name := map[string]string{}
	for _, c := range companies {
		name[c.code] = c.name
	}
	codeOf := map[int64]string{}
	for _, n := range out.NodesByLabel("Business") {
		codeOf[int64(n.ID)] = n.Props["fiscalCode"].S
	}
	fmt.Println("control structure (exported property graph):")
	for _, e := range out.EdgesByLabel("CONTROLS") {
		from, to := codeOf[int64(e.From)], codeOf[int64(e.To)]
		if from == to {
			continue
		}
		fmt.Printf("  %-16s controls %s\n", name[from], name[to])
	}

	// Output:
	// instance super-constructs: 5 entities, 14 edges (ground + derived)
	// derived 9 CONTROLS edges
	//
	// control structure (exported property graph):
	//   Alfa Holding     controls Beta Industrie
	//   Alfa Holding     controls Gamma Logistica
	//   Alfa Holding     controls Delta Retail
	//   Gamma Logistica  controls Delta Retail
}

// Example_streaming is streaming supervision: new ownership stakes arrive
// from the register feed and the control relation is maintained
// incrementally — the step beyond the batch accumulation Section 6 of the
// paper describes. Each event is one Maintainer batch that resumes the
// saturated fixpoint instead of recomputing it, and analysts watch for the
// moment a takeover crosses the 50% threshold (the COVID-19
// takeover-monitoring scenario of the paper's companion work). The last
// lines pin that no batch recomputed, that the takeover completed, and that
// the maintained control relation equals a fresh run over the same facts.
func Example_streaming() {
	// A 5000-company register as the standing state.
	topo := fingraph.GenerateTopology(fingraph.DefaultConfig(5000, 12))
	own := finance.BuildOwnership(topo)
	db := vadalog.NewDatabase()
	for _, e := range own.Entities {
		db.MustAddFact("company", value.IntV(int64(e)))
	}
	for owner, stakes := range own.Out {
		for _, st := range stakes {
			db.MustAddFact("owns", value.IntV(int64(owner)), value.IntV(int64(st.Company)), value.FloatV(st.Pct))
		}
	}

	prog := vadalog.MustParse(finance.ControlVadalog())
	fresh := db.Clone()
	m, err := vadalog.NewMaintainer(prog, db, vadalog.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	recomputed := 0
	apply := func(d vadalog.Delta) vadalog.DeltaStats {
		for pred, facts := range d.Add {
			for _, f := range facts {
				fresh.MustAddFact(pred, f...)
			}
		}
		stats, err := m.Apply(d)
		if err != nil {
			fmt.Println(err)
		}
		if stats.Recomputed {
			recomputed++
		}
		return stats
	}
	baseline := m.DB().Count("controls")
	fmt.Printf("initial saturation: %d control facts over %d entities\n\n", baseline, len(own.Entities))

	// The feed: four newly registered companies enter the graph — a raider,
	// two intermediaries and a target — then the raider quietly accumulates
	// stakes in the target through the intermediaries until the final
	// purchase tips the joint holding over 50%.
	raider, intermediaryA, intermediaryB, target := int64(9_000_000), int64(9_000_001), int64(9_000_002), int64(9_000_003)
	newcomers := vadalog.NewDelta()
	for _, c := range []int64{raider, intermediaryA, intermediaryB, target} {
		newcomers.AddFact("company", value.IntV(c))
	}
	apply(newcomers)
	events := []struct {
		desc string
		x, y int64
		pct  float64
	}{
		{"raider takes 70% of intermediary A", raider, intermediaryA, 0.70},
		{"raider takes 65% of intermediary B", raider, intermediaryB, 0.65},
		{"intermediary A buys 30% of the target", intermediaryA, target, 0.30},
		{"intermediary B buys 15% of the target", intermediaryB, target, 0.15},
		{"raider buys 10% of the target directly", raider, target, 0.10},
	}

	controls := func(x, y int64) bool {
		for _, f := range m.DB().Facts("controls") {
			if f[0].I == x && f[1].I == y && f[0].K == value.Int {
				return true
			}
		}
		return false
	}

	for i, ev := range events {
		d := vadalog.NewDelta()
		d.AddFact("owns", value.IntV(ev.x), value.IntV(ev.y), value.FloatV(ev.pct))
		// Added also counts the asserted stake.
		derived := apply(d).Added - 1
		alert := ""
		if controls(raider, target) {
			alert = "  << TAKEOVER: raider now controls the target"
		}
		fmt.Printf("event %d: %-42s +%d facts%s\n", i+1, ev.desc, derived, alert)
	}

	if _, err := vadalog.RunInPlace(prog, fresh, vadalog.Options{}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nfinal control facts: %d (%d derived since saturation)\n",
		m.DB().Count("controls"), m.DB().Count("controls")-baseline)
	fmt.Println("batches that recomputed the fixpoint:", recomputed)
	fmt.Println("raider controls the target:", controls(raider, target))
	fmt.Println("maintained control relation equals a fresh run:", fresh.Dump() == m.DB().Dump())
	fmt.Println("the joint holding 30% + 15% + 10% = 55% crossed the majority threshold —")
	fmt.Println("the monotonic sum accumulated across propagations, no recomputation needed")

	// Output:
	// initial saturation: 20226 control facts over 14727 entities
	//
	// event 1: raider takes 70% of intermediary A         +1 facts
	// event 2: raider takes 65% of intermediary B         +1 facts
	// event 3: intermediary A buys 30% of the target      +0 facts
	// event 4: intermediary B buys 15% of the target      +0 facts
	// event 5: raider buys 10% of the target directly     +1 facts  << TAKEOVER: raider now controls the target
	//
	// final control facts: 20233 (7 derived since saturation)
	// batches that recomputed the fixpoint: 0
	// raider controls the target: true
	// maintained control relation equals a fresh run: true
	// the joint holding 30% + 15% + 10% = 55% crossed the majority threshold —
	// the monotonic sum accumulated across propagations, no recomputation needed
}
