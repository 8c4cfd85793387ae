package plan_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fingraph"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/snapfile"
)

// TestComputeStatsSnapshotMatchesCanonical holds the statistics the serving
// layer computes — ComputePlanStats over a snapshot file of a streamed
// 10k-company shareholding graph, the serve workloads' input — to the
// Canonical-string counter.
func TestComputeStatsSnapshotMatchesCanonical(t *testing.T) {
	ld := pg.NewBulkLoader(1)
	if _, err := fingraph.StreamTopology(fingraph.DefaultConfig(10_000, 1), fingraph.StreamOptions{}, ld); err != nil {
		t.Fatal(err)
	}
	frozen, err := ld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if _, err := snapfile.WriteFile(path, frozen, snapfile.BuildInfo{Tool: "stats"}); err != nil {
		t.Fatal(err)
	}
	sf, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	cat := metalog.FromGraph(sf.Frozen)
	got, want := metalog.ComputePlanStats(sf.Frozen, cat), plan.ComputeStatsCanonical(sf.Frozen, cat.PlanLayout())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ComputePlanStats diverges from the Canonical counter\n got %+v\nwant %+v", got, want)
	}
	if len(got.Preds) < 3 {
		t.Fatalf("the snapshot's statistics cover %d labels: %+v", len(got.Preds), got.Preds)
	}
}
