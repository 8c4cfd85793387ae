package instance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/testutil"
	"repro/internal/vadalog"
)

// The chaos harness: sweep every registered fault site across error and
// panic modes and both engine configurations, asserting the pipeline's two
// robustness invariants on each run —
//
//  1. Atomicity: if Materialize returns an error, the rendered dictionary
//     is byte-identical to its pre-call state.
//  2. Containment: an injected panic surfaces as a typed *fault.PanicError,
//     never a process crash, and no goroutines leak.
//
// Sites that are not on this pipeline's path (the pg serialization sites,
// the shard site when the translated program evaluates sequentially) simply
// never fire; the harness asserts those runs succeed untouched, which guards
// against a site accidentally firing somewhere it should not exist.

// dictSerial captures the dictionary's observable state: its Figure 9
// rendering, schema and instance constructs at their OIDs. Injection must be
// disarmed before calling it — the pg/write-json site sits on this path too.
func dictSerial(t *testing.T, d *Dictionary) string {
	t.Helper()
	g, err := d.Constructs()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pg.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func chaosFixture(t *testing.T) (*Dictionary, *pg.Graph, *metalog.Program) {
	t.Helper()
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := metalog.Parse(controlSigma)
	if err != nil {
		t.Fatal(err)
	}
	return d, buildCompanyData(t), sigma
}

func TestChaosSweep(t *testing.T) {
	sites := fault.Sites()
	if len(sites) < 9 {
		t.Fatalf("only %d fault sites registered, expected the full pipeline set: %v", len(sites), sites)
	}
	for _, workers := range []int{1, 8} {
		for _, site := range sites {
			for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", site, mode, workers), func(t *testing.T) {
					defer fault.Reset()
					checkLeak := testutil.CheckGoroutineLeak(t)
					d, data, sigma := chaosFixture(t)
					before := dictSerial(t, d)

					if err := fault.Arm(site, fault.Plan{Mode: mode}); err != nil {
						t.Fatal(err)
					}
					res, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{Workers: workers})
					fired := fault.Fired(site)
					fault.Reset()

					if fired == 0 {
						// Site off this pipeline's path: the armed fault must
						// be invisible.
						if err != nil {
							t.Fatalf("site never fired yet the run failed: %v", err)
						}
						return
					}
					if err == nil {
						t.Fatalf("site fired %d times but Materialize succeeded", fired)
					}
					switch mode {
					case fault.ModeError:
						if !errors.Is(err, fault.ErrInjected) {
							t.Errorf("err = %v, want ErrInjected", err)
						}
					case fault.ModePanic:
						var pe *fault.PanicError
						if !errors.As(err, &pe) {
							t.Errorf("err = %v, want contained *fault.PanicError", err)
						} else if len(pe.Stack) == 0 {
							t.Error("PanicError lost its stack")
						}
					}
					if res != nil {
						t.Errorf("failed Materialize returned a non-nil Result")
					}
					if after := dictSerial(t, d); after != before {
						t.Errorf("atomicity violated at site %s: dictionary changed after a failed run", site)
					}
					checkLeak()
				})
			}
		}
	}
}

// TestChaosBestEffortSalvage: under vadalog.BestEffort a mid-reasoning
// failure salvages the completed strata — the run returns both a Result and
// the typed *vadalog.PartialError, and the dictionary keeps the loaded
// instance plus whatever the partial saturation flushed.
func TestChaosBestEffortSalvage(t *testing.T) {
	defer fault.Reset()
	d, data, sigma := chaosFixture(t)
	before := dictSerial(t, d)
	if err := fault.Arm("vadalog/stratum", fault.Plan{Mode: fault.ModeError, After: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{OnFault: vadalog.BestEffort})
	fault.Reset()
	var pe *vadalog.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *vadalog.PartialError", err)
	}
	if res == nil {
		t.Fatal("best-effort salvage lost the Result")
	}
	// The failing first stratum means no CONTROLS edges were derived…
	if n := len(res.Derived.NewEdges); n != 0 {
		t.Errorf("salvaged run derived %d edges from a stratum that never ran", n)
	}
	// …but the loaded instance was attached, not discarded.
	if after := dictSerial(t, d); after == before {
		t.Error("best-effort salvage discarded the loaded instance")
	}
	// FailFast over the same fault discards everything.
	d2, data2, sigma2 := chaosFixture(t)
	before2 := dictSerial(t, d2)
	if err := fault.Arm("vadalog/stratum", fault.Plan{Mode: fault.ModeError, After: 1}); err != nil {
		t.Fatal(err)
	}
	res2, err2 := Materialize(d2, PGSource{Data: data2}, sigma2, 1, vadalog.Options{})
	fault.Reset()
	if err2 == nil || res2 != nil {
		t.Fatalf("fail-fast run: res=%v err=%v, want nil result and an error", res2, err2)
	}
	if after2 := dictSerial(t, d2); after2 != before2 {
		t.Error("fail-fast run left dictionary mutations behind")
	}
}

// TestMaterializeFlushErrorRollsBack: a natural (non-injected) flush-time
// failure — Σ deriving an edge type outside the schema — also leaves the
// dictionary byte-identical, even though the load phase had already built the
// full instance and allocated its OIDs.
func TestMaterializeFlushErrorRollsBack(t *testing.T) {
	d, data, _ := chaosFixture(t)
	before := dictSerial(t, d)
	sigma := metalog.MustParse(`(x: Business) -> (x) [e: TELEPORTS_TO] (x).`)
	_, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{})
	if err == nil || !strings.Contains(err.Error(), "TELEPORTS_TO") {
		t.Fatalf("off-schema derivation must fail, got %v", err)
	}
	if after := dictSerial(t, d); after != before {
		t.Error("flush failure left the loaded instance in the dictionary")
	}
	// The failed run's OIDs were handed back: a run after it allocates what
	// a run on a fresh dictionary does.
	mustMaterialize(t, d, PGSource{Data: data}, metalog.MustParse(controlSigma), 1)
	fresh, freshData, sigma := chaosFixture(t)
	mustMaterialize(t, fresh, PGSource{Data: freshData}, sigma, 1)
	if dictSerial(t, d) != dictSerial(t, fresh) {
		t.Error("the run after a failed one allocated different OIDs")
	}
}

// TestChaosScheduleSweep drives the harness the way the hidden -chaos CLI
// flag does: a seeded fault.Schedule covering every site in shuffled order,
// one run per step, with the atomicity invariant checked after each.
func TestChaosScheduleSweep(t *testing.T) {
	defer fault.Reset()
	for _, seed := range []int64{1, 42} {
		steps := fault.Schedule(seed, []fault.Mode{fault.ModeError, fault.ModePanic})
		if len(steps) != len(fault.Sites()) {
			t.Fatalf("schedule covers %d of %d sites", len(steps), len(fault.Sites()))
		}
		for _, step := range steps {
			d, data, sigma := chaosFixture(t)
			before := dictSerial(t, d)
			if err := fault.Arm(step.Site, step.Plan); err != nil {
				t.Fatal(err)
			}
			_, err := Materialize(d, PGSource{Data: data}, sigma, 1, vadalog.Options{})
			fired := fault.Fired(step.Site)
			fault.Reset()
			if fired > 0 && err == nil {
				t.Errorf("seed %d site %s: fault fired but run succeeded", seed, step.Site)
			}
			if err != nil {
				if after := dictSerial(t, d); after != before {
					t.Errorf("seed %d site %s: atomicity violated", seed, step.Site)
				}
			}
		}
	}
}
