package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/value"
)

// The request mix of the serve workloads. Kinds are drawn 60/30/10; the key
// of a point or closure query comes from a hot set with probability
// hotShare and uniformly from all companies otherwise, so the working set
// exceeds the result cache and the hit ratio sits well below the median.
const (
	kindPoint   = "point1hop"
	kindClosure = "closure"
	kindScan    = "scan"

	pointShare   = 0.60
	closureShare = 0.30
	scanLimit    = 100
)

type request struct {
	Kind  string
	Query string
	Limit int
	// Hot says the key came from the hot set (points and closures only).
	Hot bool
}

func (q request) body() []byte {
	b, _ := json.Marshal(struct {
		Query string `json:"query"`
		Limit int    `json:"limit,omitempty"`
	}{q.Query, q.Limit})
	return b
}

// requestGen is one client's deterministic request stream.
type requestGen struct {
	rng       *rand.Rand
	companies int
	hot       []int
	hotShare  float64
}

// newRequestGen derives a client's stream from the run seed and the client
// number. The hot set depends on the seed alone, so all clients share it.
func newRequestGen(seed int64, client, companies, hotKeys int, hotShare float64) *requestGen {
	hotRng := rand.New(rand.NewSource(seed*7919 + 1))
	if hotKeys > companies {
		hotKeys = companies
	}
	return &requestGen{
		rng:       rand.New(rand.NewSource(seed*1000003 + int64(client)*101 + 17)),
		companies: companies,
		hot:       hotRng.Perm(companies)[:hotKeys],
		hotShare:  hotShare,
	}
}

// companyCode is fingraph's legacy fiscal code of company i.
func companyCode(i int) string { return fmt.Sprintf("CO%08d", i) }

func pointQuery(code string) string {
	return fmt.Sprintf(`(x: Entity; fiscalCode: %q) [: OWNS; percentage: p] (y: Entity)`, code)
}

func closureQuery(code string) string {
	return fmt.Sprintf(`(x: Entity; fiscalCode: %q) ([: OWNS])+ (y: Entity)`, code)
}

func (g *requestGen) next() request {
	u := g.rng.Float64()
	if u >= pointShare+closureShare {
		// Thresholds on a 1/1000 grid over [0.5, 0.95): 450 distinct scans,
		// so a scan is rarely a cache hit.
		t := 0.5 + float64(g.rng.Intn(450))/1000
		return request{Kind: kindScan, Limit: scanLimit,
			Query: fmt.Sprintf(`(x: Entity) [: OWNS; percentage: p] (y: Entity), p > %.3f`, t)}
	}
	hot := g.rng.Float64() < g.hotShare
	var key int
	if hot {
		key = g.hot[g.rng.Intn(len(g.hot))]
	} else {
		key = g.rng.Intn(g.companies)
	}
	if u < pointShare {
		return request{Kind: kindPoint, Hot: hot, Query: pointQuery(companyCode(key))}
	}
	return request{Kind: kindClosure, Hot: hot, Query: closureQuery(companyCode(key))}
}

// graphShape is what the mutation generator needs to know of the streamed
// shareholding snapshot: persons take OIDs 1..P, companies P+1..P+C, and
// the OWNS edges P+C+1..P+C+E, in emission order.
type graphShape struct {
	Persons, Companies, Edges int
}

func (s graphShape) nodes() int              { return s.Persons + s.Companies }
func (s graphShape) companyOID(i int) pg.OID { return pg.OID(s.Persons + 1 + i) }
func (s graphShape) personOID(i int) pg.OID  { return pg.OID(1 + i) }
func (s graphShape) edgeOID(i int) pg.OID    { return pg.OID(s.nodes() + 1 + i) }

// mutationGen is the writer's deterministic batch stream. Every batch holds
// 4 add_edge between existing entities, 2 remove_edge of base edges drawn
// without replacement, 1 set_node_prop and 1 add_node that carries an
// existing company's labels and property keys — so no batch grows the
// catalog and every one stays on the incremental fact path.
type mutationGen struct {
	rng     *rand.Rand
	shape   graphShape
	victims []int // base edge indexes, in removal order
	next    int   // batches produced
}

const (
	batchAddEdges    = 4
	batchRemoveEdges = 2
)

func newMutationGen(seed int64, shape graphShape) *mutationGen {
	rng := rand.New(rand.NewSource(seed*2000003 + 29))
	return &mutationGen{rng: rng, shape: shape, victims: rng.Perm(shape.Edges)}
}

// batch returns the next batch, or false once the base edges to remove are
// exhausted (far beyond any run's length).
func (g *mutationGen) batch() ([]overlay.Op, bool) {
	if (g.next+1)*batchRemoveEdges > len(g.victims) {
		return nil, false
	}
	ops := make([]overlay.Op, 0, batchAddEdges+batchRemoveEdges+2)
	for i := 0; i < batchAddEdges; i++ {
		from := pg.OID(1 + g.rng.Intn(g.shape.nodes()))
		to := g.shape.companyOID(g.rng.Intn(g.shape.Companies))
		ops = append(ops, overlay.Op{Kind: overlay.OpAddEdge, From: overlay.Ref{ID: from}, To: overlay.Ref{ID: to},
			Label: "OWNS", Props: pg.Props{"percentage": value.FloatV(float64(1+g.rng.Intn(49)) / 100)}})
	}
	for i := 0; i < batchRemoveEdges; i++ {
		ops = append(ops, overlay.Op{Kind: overlay.OpRemoveEdge,
			Edge: g.shape.edgeOID(g.victims[g.next*batchRemoveEdges+i])})
	}
	// Persons are never query keys, so renaming one never empties a read.
	p := g.rng.Intn(g.shape.Persons)
	ops = append(ops, overlay.Op{Kind: overlay.OpSetNodeProp, Node: overlay.Ref{ID: g.shape.personOID(p)},
		Key: "fiscalCode", Value: value.Str(fmt.Sprintf("PX%08d", g.next))})
	ops = append(ops, overlay.Op{Kind: overlay.OpAddNode, Labels: []string{"Business", "Entity"},
		Props: pg.Props{"fiscalCode": value.Str(fmt.Sprintf("CN%08d", g.next))}})
	g.next++
	return ops, true
}

// mutateBody wraps a batch in the POST /mutate envelope; the ops array is
// the wire format internal/overlay owns.
func mutateBody(ops []overlay.Op) ([]byte, error) {
	arr, err := overlay.EncodeOps(ops)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Ops json.RawMessage `json:"ops"`
	}{arr})
}

// churnGen hands out, for each maintenance pair, the indexes of the facts
// to retract: share of n, at least one, without replacement inside a batch.
// The batches come from a fixed pool drawn from the pinned shape seed, and
// the run seed draws the order in which the pool is cycled through. A pair's
// cost follows which stakes it pulls (p10 16 ms, p90 65 ms on reason-reach),
// so a fresh stream per seed moved the median pair by 15% between seeds; a
// run that visits every pool batch three or four times reports the same
// inputs' median whatever the seed.
type churnGen struct {
	pool  [][]int
	order []int
	next  int
}

func newChurnGen(shapeSeed, seed int64, n int, share float64, pool int) *churnGen {
	k := int(float64(n) * share)
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(shapeSeed*3000017 + 43))
	g := &churnGen{order: rand.New(rand.NewSource(seed*3000017 + 47)).Perm(pool)}
	for len(g.pool) < pool {
		seen := make(map[int]bool, k)
		batch := make([]int, 0, k)
		for len(batch) < k {
			if i := rng.Intn(n); !seen[i] {
				seen[i] = true
				batch = append(batch, i)
			}
		}
		g.pool = append(g.pool, batch)
	}
	return g
}

func (g *churnGen) batch() []int {
	b := g.pool[g.order[g.next%len(g.order)]]
	g.next++
	return b
}
