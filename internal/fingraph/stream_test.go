package fingraph

import (
	"bytes"
	"testing"

	"repro/internal/pg"
	"repro/internal/snapfile"
)

// streamConfigs are the sweep shapes: three sizes spanning two orders of
// magnitude, plus a pyramid-heavy variant that maximizes tail-stake volume
// (pyramids are the largest tail phase, and the one whose pairs most often
// collide with main-loop stakes).
func streamConfigs(seed int64) []Config {
	base := Config{
		MeanShareholders:       2.0,
		MajorityFraction:       0.6,
		LocalFraction:          0.55,
		CompanyHolderFraction:  0.35,
		PreferentialAttachment: 0.6,
		CrossHoldingFraction:   0.002,
		Seed:                   seed,
	}
	small, mid, large, pyr := base, base, base, base
	small.Companies = 60
	mid.Companies = 400
	large.Companies = 2500
	pyr.Companies = 500
	pyr.PyramidFraction = 0.3
	pyr.PyramidDepth = 4
	return []Config{small, mid, large, pyr}
}

// encodeViaMaterialize is the reference pipeline: full in-memory topology,
// mutable graph, Freeze, snapfile encode.
func encodeViaMaterialize(t *testing.T, cfg Config) []byte {
	t.Helper()
	frozen := GenerateTopology(cfg).Shareholding().Freeze()
	data, err := snapfile.Encode(frozen, snapfile.BuildInfo{Tool: "equivalence"})
	if err != nil {
		t.Fatalf("encode materialized: %v", err)
	}
	return data
}

// encodeViaStream is the streaming pipeline under test: StreamTopology into
// a BulkLoader at the given worker count, Finish, snapfile encode.
func encodeViaStream(t *testing.T, cfg Config, workers, batch int) []byte {
	t.Helper()
	ld := pg.NewBulkLoader(workers)
	stats, err := StreamTopology(cfg, StreamOptions{BatchSize: batch}, ld)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	frozen, err := ld.Finish()
	if err != nil {
		t.Fatalf("bulk finish: %v", err)
	}
	if got := frozen.NumNodes(); got != stats.Persons+stats.Companies {
		t.Fatalf("stream stats claim %d nodes, snapshot has %d", stats.Persons+stats.Companies, got)
	}
	if got := frozen.NumEdges(); got != stats.Edges {
		t.Fatalf("stream stats claim %d edges, snapshot has %d", stats.Edges, got)
	}
	data, err := snapfile.Encode(frozen, snapfile.BuildInfo{Tool: "equivalence"})
	if err != nil {
		t.Fatalf("encode streamed: %v", err)
	}
	return data
}

// TestStreamEquivalenceSweep is the equivalence wall of the streaming data
// plane: for 25 seeds × 4 config shapes, the streamed snapshot must be
// byte-identical through the snapfile encoder to the materialized one, at
// W=1 and W=8 and across batch sizes. Determinism is the contract, not a
// hope — a single diverging byte fails the sweep.
func TestStreamEquivalenceSweep(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		for ci, cfg := range streamConfigs(seed) {
			want := encodeViaMaterialize(t, cfg)
			for _, workers := range []int{1, 8} {
				got := encodeViaStream(t, cfg, workers, 512)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d config %d W=%d: streamed snapshot diverges from materialized (%d vs %d bytes)",
						seed, ci, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestStreamBatchSizeInvariance pins that the batch boundary cannot leak
// into the output: pathological sizes (1, 7, huge) produce identical bytes.
func TestStreamBatchSizeInvariance(t *testing.T) {
	cfg := streamConfigs(3)[1]
	want := encodeViaStream(t, cfg, 2, 512)
	for _, batch := range []int{1, 7, 1 << 20} {
		if got := encodeViaStream(t, cfg, 2, batch); !bytes.Equal(got, want) {
			t.Fatalf("batch size %d changed the snapshot bytes", batch)
		}
	}
}

// TestStreamStatsMatchTopology cross-checks the stream's self-reported
// stats against the materialized topology.
func TestStreamStatsMatchTopology(t *testing.T) {
	cfg := streamConfigs(11)[2]
	topo := GenerateTopology(cfg)
	g := topo.Shareholding()

	ld := pg.NewBulkLoader(2)
	stats, err := StreamTopology(cfg, StreamOptions{}, ld)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if _, err := ld.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if stats.Persons != topo.Persons || stats.Companies != topo.Companies {
		t.Fatalf("stats (%d persons, %d companies) disagree with topology (%d, %d)",
			stats.Persons, stats.Companies, topo.Persons, topo.Companies)
	}
	if stats.Edges != g.NumEdges() {
		t.Fatalf("stats claim %d edges, materialized graph has %d", stats.Edges, g.NumEdges())
	}
}
