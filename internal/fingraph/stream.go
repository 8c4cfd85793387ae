package fingraph

// Streaming generation: the producer side of the 100M-edge data plane.
//
// StreamTopology emits the simple shareholding graph — the same nodes,
// edges, OIDs and property values Shareholding builds — as uniform-schema
// batches, without materializing the Topology, the stake list, or the
// mutable graph. The peak footprint is the preferential-attachment pool
// plus one batch, instead of hundreds of bytes per construct.
//
// It works in two passes over the same seeded RNG:
//
//   - The prepass runs the generation core with a counting sink: it learns
//     the person count (which fixes every node OID arithmetically: persons
//     get 1..P in creation order — which is index order — and companies
//     P+1..P+C) and collects the tail stakes (pyramids, cross-holdings,
//     cycle cluster), a ~0.4% fraction of companies, all company→company.
//
//   - The emission pass re-runs the core. Main-loop stakes are provably
//     unique (holder, company) pairs — the per-company dedup plus distinct
//     company indexes guarantee it — so each one becomes exactly one OWNS
//     edge, emitted immediately in stake order, which is exactly
//     Shareholding's first-seen pair order. A tail stake may duplicate a
//     main pair; those are merged *forward* into the main edge using the
//     prepass tail list (pct additions applied in tail-stake order, the
//     same float addition order as Shareholding's sequential aggregation).
//     Tail stakes not consumed that way are aggregated and emitted after
//     the main loop, in first-seen order — again matching Shareholding.
//
// The differential sweep (stream_test.go) holds the result byte-identical
// through the snapfile encoder to GenerateTopology→Shareholding→Freeze
// across seeds, sizes and worker counts.

import (
	"repro/internal/pg"
	"repro/internal/value"
)

// BatchSink receives the batch stream. *pg.BulkLoader satisfies it; tests
// substitute recorders. Reserve is a capacity hint (edges may be slightly
// over-reported: tail merges are only resolved during emission).
type BatchSink interface {
	Reserve(nodes, nodeProps, edges, edgeProps int)
	AddNodes(pg.NodeBatch) error
	AddEdges(pg.EdgeBatch) error
}

// StreamOptions tunes the batch stream.
type StreamOptions struct {
	// BatchSize is the row count per emitted batch; 0 means 65536.
	BatchSize int
}

// StreamStats summarizes one streaming run.
type StreamStats struct {
	Persons   int
	Companies int
	Edges     int
}

// countSink is the prepass: count persons (via runTopology's return),
// count main stakes, keep the tail.
type countSink struct {
	mainStakes int
	tail       []Stake
}

func (s *countSink) person(int) {}
func (s *countSink) stake(h Holder, c int, pct float64, tail bool) {
	if tail {
		s.tail = append(s.tail, Stake{Holder: h, Company: c, Pct: pct})
	} else {
		s.mainStakes++
	}
}

// pairKey packs a company→company pair; tail holders are always companies
// and indexes are far below 2³¹.
func pairKey(holderIdx, company int) uint64 {
	return uint64(holderIdx)<<32 | uint64(company)
}

// emitSink is the emission pass: stream each main stake out as one edge,
// folding in any tail additions for the same pair.
type emitSink struct {
	sink      BatchSink
	batch     int
	personOID func(i int) pg.OID
	company   func(i int) pg.OID

	tailAdd  map[uint64][]float64 // pair → tail pcts, in tail-stake order
	consumed map[uint64]bool      // tail pairs merged into a main edge

	nextEdge pg.OID
	edges    int

	oids []pg.OID
	from []pg.OID
	to   []pg.OID
	vals []value.Value
	err  error
}

func (e *emitSink) person(int) {} // nodes were emitted arithmetically upfront

func (e *emitSink) stake(h Holder, c int, pct float64, tail bool) {
	if e.err != nil || tail {
		// Tail stakes were captured by the prepass; the emission pass
		// handles them after the main loop.
		return
	}
	from := e.personOID(h.Index)
	if h.IsCompany {
		from = e.company(h.Index)
		if adds, ok := e.tailAdd[pairKey(h.Index, c)]; ok {
			for _, a := range adds {
				pct += a
			}
			e.consumed[pairKey(h.Index, c)] = true
		}
	}
	e.addEdge(from, e.company(c), pct)
}

func (e *emitSink) addEdge(from, to pg.OID, pct float64) {
	if e.err != nil {
		return
	}
	e.nextEdge++
	e.edges++
	e.oids = append(e.oids, e.nextEdge)
	e.from = append(e.from, from)
	e.to = append(e.to, to)
	e.vals = append(e.vals, value.FloatV(pct))
	if len(e.oids) >= e.batch {
		e.flush()
	}
}

var (
	personLabels  = []string{"Entity", "PhysicalPerson"}
	companyLabels = []string{"Business", "Entity"}
	fiscalKeys    = []string{"fiscalCode"}
	ownsKeys      = []string{"percentage"}
)

func (e *emitSink) flush() {
	if e.err != nil || len(e.oids) == 0 {
		return
	}
	e.err = e.sink.AddEdges(pg.EdgeBatch{
		Label: "OWNS",
		Keys:  ownsKeys,
		OIDs:  e.oids,
		From:  e.from,
		To:    e.to,
		Vals:  e.vals,
	})
	e.oids, e.from, e.to, e.vals = e.oids[:0], e.from[:0], e.to[:0], e.vals[:0]
}

// StreamTopology generates cfg's simple shareholding graph as a batch
// stream into sink: persons, then companies, then OWNS edges, with the
// exact OIDs, labels and property values of
// GenerateTopology(cfg).Shareholding(). Feed it a pg.BulkLoader and call
// Finish for the frozen snapshot.
func StreamTopology(cfg Config, opt StreamOptions, sink BatchSink) (StreamStats, error) {
	cfg = cfg.normalized()
	pre := &countSink{}
	persons := runTopology(cfg, pre)
	width := codeWidth(persons, cfg.Companies)

	batch := opt.BatchSize
	if batch <= 0 {
		batch = 1 << 16
	}
	nodes := persons + cfg.Companies
	edgeCap := pre.mainStakes + len(pre.tail) // upper bound: tail merges shrink it
	sink.Reserve(nodes, nodes, edgeCap, edgeCap)

	// Nodes are arithmetic once the prepass has fixed P: persons take OIDs
	// 1..P (AddNode order in Shareholding), companies P+1..P+C.
	oids := make([]pg.OID, 0, batch)
	vals := make([]value.Value, 0, batch)
	emitNodes := func(labels []string, count int, base pg.OID, code func(int) string) error {
		for i := 0; i < count; i++ {
			oids = append(oids, base+pg.OID(i))
			vals = append(vals, value.Str(code(i)))
			if len(oids) >= batch {
				if err := sink.AddNodes(pg.NodeBatch{Labels: labels, Keys: fiscalKeys, OIDs: oids, Vals: vals}); err != nil {
					return err
				}
				oids, vals = oids[:0], vals[:0]
			}
		}
		if len(oids) > 0 {
			if err := sink.AddNodes(pg.NodeBatch{Labels: labels, Keys: fiscalKeys, OIDs: oids, Vals: vals}); err != nil {
				return err
			}
			oids, vals = oids[:0], vals[:0]
		}
		return nil
	}
	if err := emitNodes(personLabels, persons, 1, func(i int) string { return personCode(width, i) }); err != nil {
		return StreamStats{}, err
	}
	if err := emitNodes(companyLabels, cfg.Companies, pg.OID(persons+1), func(i int) string { return companyCode(width, i) }); err != nil {
		return StreamStats{}, err
	}

	// Index the tail for the forward merge.
	tailAdd := make(map[uint64][]float64, len(pre.tail))
	for _, s := range pre.tail {
		k := pairKey(s.Holder.Index, s.Company)
		tailAdd[k] = append(tailAdd[k], s.Pct)
	}

	em := &emitSink{
		sink:      sink,
		batch:     batch,
		personOID: func(i int) pg.OID { return pg.OID(1 + i) },
		company:   func(i int) pg.OID { return pg.OID(1 + persons + i) },
		tailAdd:   tailAdd,
		consumed:  make(map[uint64]bool, len(pre.tail)),
		nextEdge:  pg.OID(nodes),
	}
	runTopology(cfg, em)
	if em.err != nil {
		return StreamStats{}, em.err
	}

	// Tail pairs that never met a main stake become fresh edges, in
	// first-seen tail order, with pcts summed in tail-stake order — the
	// same order Shareholding's sequential aggregation would have used.
	type tailEdge struct {
		from, to pg.OID
		pct      float64
	}
	firstSeen := make(map[uint64]int, len(pre.tail))
	var fresh []tailEdge
	for _, s := range pre.tail {
		k := pairKey(s.Holder.Index, s.Company)
		if em.consumed[k] {
			continue
		}
		if j, ok := firstSeen[k]; ok {
			fresh[j].pct += s.Pct
			continue
		}
		firstSeen[k] = len(fresh)
		fresh = append(fresh, tailEdge{from: em.company(s.Holder.Index), to: em.company(s.Company), pct: s.Pct})
	}
	for _, t := range fresh {
		em.addEdge(t.from, t.to, t.pct)
	}
	em.flush()
	if em.err != nil {
		return StreamStats{}, em.err
	}
	return StreamStats{Persons: persons, Companies: cfg.Companies, Edges: em.edges}, nil
}
