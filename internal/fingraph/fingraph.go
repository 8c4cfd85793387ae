// Package fingraph generates synthetic financial knowledge graphs that stand
// in for the Italian Chambers of Commerce register data the paper's Company
// KG is built from (Section 2.1). The real data cannot be redistributed; the
// generator reproduces the topological shape the paper reports — a
// scale-free shareholding network with power-law degrees, a giant weakly
// connected component alongside ~a million small ones, almost exclusively
// trivial strongly connected components with a few larger cycles from
// cross-shareholding, and a tiny clustering coefficient — at any scale, so
// that the intensional components (control, integrated ownership, close
// links) exercise the same code paths as on the production graph.
package fingraph

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/pg"
	"repro/internal/value"
)

// Config parameterizes the generator. The defaults (see DefaultConfig)
// reproduce the Section 2.1 shape.
type Config struct {
	Seed      int64
	Companies int

	// PersonsPerCompany controls how many natural persons exist relative to
	// companies (the Bank of Italy graph has roughly 2 persons per company
	// among its 11.97M nodes).
	PersonsPerCompany float64

	// MeanShareholders is the mean number of shareholders per company with
	// a heavy-tailed (approximately Zipfian) distribution around it.
	MeanShareholders float64

	// CompanyHolderFraction is the probability that a shareholder slot is
	// filled by a company rather than a person, creating ownership chains.
	CompanyHolderFraction float64

	// PreferentialAttachment is the probability of picking an existing
	// high-degree holder instead of a uniform one, producing the power-law
	// out-degree tail (investment hubs).
	PreferentialAttachment float64

	// LocalFraction is the probability that a company draws its
	// shareholders only from fresh persons, forming a small star-shaped
	// weakly connected component of its own (the ~1.3M small WCCs).
	LocalFraction float64

	// MajorityFraction is the probability that a company has a majority
	// shareholder (> 50%), which is what makes control chains non-trivial.
	MajorityFraction float64

	// CrossHoldingFraction is the fraction of companies involved in
	// reciprocal-ownership cycles (small SCCs); CycleCluster adds one larger
	// cycle of the given size, standing in for the 1.9k-node largest SCC.
	CrossHoldingFraction float64
	CycleCluster         int

	// PyramidFraction organizes the given fraction of companies into
	// majority-holding chains of PyramidDepth companies (corporate pyramids,
	// common in the Italian economy). Pyramids are what make the control
	// reasoning expensive: a depth-d chain derives d(d-1)/2 control pairs.
	PyramidFraction float64
	PyramidDepth    int

	// Events is the number of BusinessEvents in the full KG rendering.
	Events int
}

// DefaultConfig returns the reference configuration at the given scale
// (number of companies), seeded deterministically.
func DefaultConfig(companies int, seed int64) Config {
	return Config{
		Seed:                   seed,
		Companies:              companies,
		PersonsPerCompany:      1.6,
		MeanShareholders:       2.4,
		CompanyHolderFraction:  0.25,
		PreferentialAttachment: 0.55,
		LocalFraction:          0.45,
		MajorityFraction:       0.4,
		CrossHoldingFraction:   0.002,
		CycleCluster:           0, // enabled when companies is large enough
		Events:                 companies / 20,
	}
}

// Holder identifies a shareholder in the topology: a person or a company.
type Holder struct {
	IsCompany bool
	Index     int
}

// Stake is one ownership stake: holder owns Pct of company Company.
type Stake struct {
	Holder  Holder
	Company int
	Pct     float64
}

// Topology is the raw shareholding structure, before rendering to a graph.
type Topology struct {
	Config    Config
	Persons   int
	Companies int
	Stakes    []Stake
}

// normalized applies the historical in-place Config adjustments of
// GenerateTopology, so every consumer of the shared generation core (the
// materializing path, the streaming prepass, the streaming emission pass)
// sees the same effective configuration.
func (cfg Config) normalized() Config {
	if cfg.Companies <= 0 {
		cfg.Companies = 100
	}
	if cfg.CycleCluster == 0 && cfg.Companies >= 2000 {
		cfg.CycleCluster = cfg.Companies / 1500
	}
	return cfg
}

// topoSink receives the deterministic event stream of one generation run.
// person(i) fires when natural person i is created (indexes are dense and
// ascending); stake fires for every generated stake in emission order, with
// tail=true for the post-main-loop phases (pyramids, cross-holdings, cycle
// cluster), whose holders are always companies.
type topoSink interface {
	person(i int)
	stake(h Holder, company int, pct float64, tail bool)
}

// Pool entries are packed into int32 — persons as the index itself,
// companies as its bitwise complement — because at 100M-edge scale the
// preferential-attachment pool holds tens of millions of entries and the
// 16-byte Holder struct would quadruple its footprint. The packing caps
// entity indexes at 2³¹-1, far above any feasible in-memory scale.
func encodePool(h Holder) int32 {
	if h.IsCompany {
		return ^int32(h.Index)
	}
	return int32(h.Index)
}

func decodePool(v int32) Holder {
	if v < 0 {
		return Holder{IsCompany: true, Index: int(^v)}
	}
	return Holder{IsCompany: false, Index: int(v)}
}

// runTopology is the generation core shared by GenerateTopology and the
// streaming generator. It drives the seeded RNG through the exact historical
// call sequence — the determinism contract every differential test pins —
// and reports each event to the sink. It returns the number of persons
// created. cfg must already be normalized.
func runTopology(cfg Config, sink topoSink) (persons int) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The global pool from which connected companies draw shareholders;
	// repeated entries implement preferential attachment ("the rich get
	// richer" — every acquired stake re-enters the pool).
	var pool []int32
	addPerson := func() Holder {
		h := Holder{IsCompany: false, Index: persons}
		sink.person(persons)
		persons++
		return h
	}

	zipfK := func(mean float64) int {
		// Heavy-tailed shareholder counts: mostly 1..3, occasionally large.
		u := rng.Float64()
		k := 1
		switch {
		case u < 0.45:
			k = 1
		case u < 0.72:
			k = 2
		case u < 0.86:
			k = 3
		case u < 0.94:
			k = 4 + rng.Intn(3)
		case u < 0.99:
			k = 7 + rng.Intn(12)
		default:
			k = 20 + rng.Intn(int(mean*40)+1)
		}
		return k
	}

	// pctBuf is reused across companies: stakes receive the percentage by
	// value, so nothing aliases the buffer past one company's loop.
	var pctBuf []float64
	splitPercent := func(k int, majority bool) []float64 {
		if cap(pctBuf) < k {
			pctBuf = make([]float64, k)
		}
		out := pctBuf[:k]
		if k == 1 {
			out[0] = 1
			return out
		}
		if majority {
			out[0] = 0.5 + rng.Float64()*0.45
			rest := 1 - out[0]
			acc := 0.0
			for i := 1; i < k-1; i++ {
				out[i] = rest * rng.Float64() / float64(k)
				acc += out[i]
			}
			out[k-1] = rest - acc
			return out
		}
		acc := 0.0
		for i := 0; i < k; i++ {
			out[i] = rng.Float64() + 0.05
			acc += out[i]
		}
		for i := range out {
			out[i] /= acc
		}
		return out
	}

	// seen dedups holder picks within one company. Shareholder counts are
	// bounded by zipfK's tail (~a hundred), so a linear scan over a reused
	// slice replaces the historical per-company map without touching the
	// RNG sequence — the map was never iterated.
	seen := make([]Holder, 0, 32)
	for c := 0; c < cfg.Companies; c++ {
		k := zipfK(cfg.MeanShareholders)
		majority := rng.Float64() < cfg.MajorityFraction
		pcts := splitPercent(k, majority)
		local := rng.Float64() < cfg.LocalFraction

		seen = seen[:0]
		for i := 0; i < k; i++ {
			var h Holder
			switch {
			case local:
				h = addPerson()
			case rng.Float64() < cfg.CompanyHolderFraction && c > 0:
				// A company holder: prefer companies with existing stakes.
				if cfg.PreferentialAttachment > rng.Float64() && len(pool) > 0 {
					h = decodePool(pool[rng.Intn(len(pool))])
					if !h.IsCompany {
						h = Holder{IsCompany: true, Index: rng.Intn(c)}
					}
				} else {
					h = Holder{IsCompany: true, Index: rng.Intn(c)}
				}
			default:
				if cfg.PreferentialAttachment > rng.Float64() && len(pool) > 0 {
					h = decodePool(pool[rng.Intn(len(pool))])
				} else {
					h = addPerson()
				}
			}
			if h.IsCompany && h.Index == c {
				h = addPerson() // no self-ownership
			}
			dup := false
			for _, s := range seen {
				if s == h {
					dup = true
					break
				}
			}
			if dup {
				continue // merge duplicate picks into a single stake
			}
			seen = append(seen, h)
			sink.stake(h, c, pcts[i], false)
			if !local {
				pool = append(pool, encodePool(h))
			}
		}
	}

	// Corporate pyramids: consecutive companies chained by majority stakes.
	if cfg.PyramidFraction > 0 && cfg.PyramidDepth > 1 {
		chained := int(float64(cfg.Companies) * cfg.PyramidFraction)
		for start := 0; start+cfg.PyramidDepth <= chained; start += cfg.PyramidDepth {
			for i := 0; i < cfg.PyramidDepth-1; i++ {
				sink.stake(Holder{IsCompany: true, Index: start + i}, start+i+1, 0.51+rng.Float64()*0.3, true)
			}
		}
	}

	// Cross-holdings: reciprocal minority stakes create 2-cycles (small
	// non-trivial SCCs, like the real graph's).
	crossPairs := int(float64(cfg.Companies) * cfg.CrossHoldingFraction)
	for i := 0; i < crossPairs; i++ {
		a := rng.Intn(cfg.Companies)
		b := rng.Intn(cfg.Companies)
		if a == b {
			continue
		}
		sink.stake(Holder{IsCompany: true, Index: a}, b, 0.05+rng.Float64()*0.1, true)
		sink.stake(Holder{IsCompany: true, Index: b}, a, 0.05+rng.Float64()*0.1, true)
	}
	// One larger ring of cross-held companies, standing in for the 1.9k
	// largest SCC of the production graph.
	if cfg.CycleCluster > 1 {
		start := rng.Intn(cfg.Companies - cfg.CycleCluster)
		for i := 0; i < cfg.CycleCluster; i++ {
			from := start + i
			to := start + (i+1)%cfg.CycleCluster
			sink.stake(Holder{IsCompany: true, Index: from}, to, 0.05+rng.Float64()*0.05, true)
		}
	}
	return persons
}

// collectSink materializes the event stream into a Topology.
type collectSink struct{ t *Topology }

func (s collectSink) person(int) {}
func (s collectSink) stake(h Holder, company int, pct float64, _ bool) {
	s.t.Stakes = append(s.t.Stakes, Stake{Holder: h, Company: company, Pct: pct})
}

// GenerateTopology builds the shareholding structure.
func GenerateTopology(cfg Config) *Topology {
	cfg = cfg.normalized()
	t := &Topology{Config: cfg, Companies: cfg.Companies}
	t.Persons = runTopology(cfg, collectSink{t})
	return t
}

// codeWidth is the digit count of the synthetic fiscal codes of a graph
// with the given entity counts: eight, or as many as its largest person or
// company index needs. Every code of a graph then has the same width, so
// the codes sort as their indexes do.
func codeWidth(persons, companies int) int {
	return max(8, len(strconv.Itoa(max(persons, companies)-1)))
}

func personCode(width, i int) string  { return fmt.Sprintf("PF%0*d", width, i) }
func companyCode(width, i int) string { return fmt.Sprintf("CO%0*d", width, i) }

// Shareholding renders the topology as the paper's "simple shareholding
// graph": nodes are shareholders (persons and companies, all also tagged
// with the unified Entity label), and OWNS edges denote owned shares with
// their percentage, aggregated per (holder, company) pair — the layout the
// control rule of Example 4.1 assumes. The Section 2.1 statistics are
// computed on this projection.
func (t *Topology) Shareholding() *pg.Graph {
	g := pg.New()
	width := codeWidth(t.Persons, t.Companies)
	personOID := make([]pg.OID, t.Persons)
	companyOID := make([]pg.OID, t.Companies)
	for i := 0; i < t.Persons; i++ {
		personOID[i] = g.AddNode([]string{"PhysicalPerson", "Entity"}, pg.Props{
			"fiscalCode": value.Str(personCode(width, i)),
		}).ID
	}
	for i := 0; i < t.Companies; i++ {
		companyOID[i] = g.AddNode([]string{"Business", "Entity"}, pg.Props{
			"fiscalCode": value.Str(companyCode(width, i)),
		}).ID
	}
	type pair struct{ from, to pg.OID }
	agg := map[pair]float64{}
	var order []pair
	for _, s := range t.Stakes {
		var from pg.OID
		if s.Holder.IsCompany {
			from = companyOID[s.Holder.Index]
		} else {
			from = personOID[s.Holder.Index]
		}
		k := pair{from, companyOID[s.Company]}
		if _, seen := agg[k]; !seen {
			order = append(order, k)
		}
		agg[k] += s.Pct
	}
	for _, k := range order {
		g.MustAddEdge(k.from, k.to, "OWNS", pg.Props{
			"percentage": value.FloatV(agg[k]),
		})
	}
	return g
}

// CompanyKG renders the topology as a full Figure 4 data instance: persons
// and businesses with register attributes, Share nodes decoupling ownership
// via HOLDS and BELONGS_TO edges, and business events. The intensional
// constructs (OWNS, CONTROLS, …) are left for the reasoning process.
func (t *Topology) CompanyKG() *pg.Graph {
	rng := rand.New(rand.NewSource(t.Config.Seed + 1))
	g := pg.New()
	surnames := []string{"Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo", "Ricci", "Marino", "Greco"}
	firstNames := []string{"Maria", "Giuseppe", "Anna", "Francesco", "Luigi", "Rosa", "Antonio", "Giovanna", "Carlo", "Elena"}
	genders := []string{"female", "male"}
	natures := []string{"spa", "srl", "sas", "snc", "cooperativa"}

	// Nodes carry their full ancestor label sets, conforming to the
	// multi-label PG schema the SSST translation produces (Figure 6).
	width := codeWidth(t.Persons, t.Companies)
	personOID := make([]pg.OID, t.Persons)
	for i := 0; i < t.Persons; i++ {
		surname := surnames[rng.Intn(len(surnames))]
		personOID[i] = g.AddNode([]string{"PhysicalPerson", "Person"}, pg.Props{
			"fiscalCode": value.Str(personCode(width, i)),
			"name":       value.Str(surname + " " + firstNames[rng.Intn(len(firstNames))]),
			"gender":     value.Str(genders[rng.Intn(2)]),
			"birthDate":  value.Str(fmt.Sprintf("%04d-%02d-%02d", 1930+rng.Intn(70), 1+rng.Intn(12), 1+rng.Intn(28))),
		}).ID
	}
	companyOID := make([]pg.OID, t.Companies)
	for i := 0; i < t.Companies; i++ {
		companyOID[i] = g.AddNode([]string{"Business", "LegalPerson", "Person"}, pg.Props{
			"fiscalCode":          value.Str(companyCode(width, i)),
			"businessName":        value.Str(fmt.Sprintf("company-%d %s", i, natures[rng.Intn(len(natures))])),
			"legalNature":         value.Str(natures[rng.Intn(len(natures))]),
			"shareholdingCapital": value.FloatV(float64(10000 + rng.Intn(10_000_000))),
		}).ID
	}

	// Shares: one Share node per stake, held through HOLDS and anchored by
	// BELONGS_TO (the Section 3.3 decoupling).
	for si, s := range t.Stakes {
		share := g.AddNode([]string{"Share"}, pg.Props{
			"shareCode":  value.Str(fmt.Sprintf("SH%09d", si)),
			"percentage": value.FloatV(s.Pct),
		}).ID
		var holder pg.OID
		if s.Holder.IsCompany {
			holder = companyOID[s.Holder.Index]
		} else {
			holder = personOID[s.Holder.Index]
		}
		g.MustAddEdge(holder, share, "HOLDS", pg.Props{
			"right":      value.Str("ownership"),
			"percentage": value.FloatV(1.0),
		})
		g.MustAddEdge(share, companyOID[s.Company], "BELONGS_TO", nil)
	}

	// Business events.
	types := []string{"merger", "acquisition", "split"}
	for i := 0; i < t.Config.Events && t.Companies >= 2; i++ {
		ev := g.AddNode([]string{"BusinessEvent"}, pg.Props{
			"eventCode": value.Str(fmt.Sprintf("EV%07d", i)),
			"type":      value.Str(types[rng.Intn(len(types))]),
			"date":      value.Str(fmt.Sprintf("%04d-%02d-%02d", 2000+rng.Intn(22), 1+rng.Intn(12), 1+rng.Intn(28))),
		}).ID
		a := companyOID[rng.Intn(t.Companies)]
		b := companyOID[rng.Intn(t.Companies)]
		g.MustAddEdge(a, ev, "PARTICIPATES", pg.Props{"role": value.Str("acquirer")})
		if b != a {
			g.MustAddEdge(b, ev, "PARTICIPATES", pg.Props{"role": value.Str("acquired")})
		}
	}
	return g
}

// NumNodes returns the number of nodes of the simple shareholding graph.
func (t *Topology) NumNodes() int { return t.Persons + t.Companies }
