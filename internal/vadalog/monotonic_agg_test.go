package vadalog

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/value"
)

// outputKeys renders a predicate's facts as a sorted list of canonical keys,
// so two fact sets compare by value identity.
func outputKeys(db *Database, pred string) []string {
	var out []string
	for _, f := range db.Facts(pred) {
		out = append(out, encodeKey(f))
	}
	sort.Strings(out)
	return out
}

// TestMonotonicAggIdentity pins the identity a monotonic aggregate keys its
// groups and contributors by: Int 1, Float 1.0 and String "1" are three
// distinct contributors and three distinct groups, every NaN is one
// contributor and one group whatever its payload, and +0 and -0 are two. A
// stratified aggregate's groups, which live in the same group table, draw
// the same distinctions.
func TestMonotonicAggIdentity(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000001)
	one := []value.Value{value.IntV(1), value.FloatV(1), value.Str("1")}
	nans := []value.Value{value.FloatV(math.NaN()), value.FloatV(nan2)}
	zeros := []value.Value{value.FloatV(0), value.FloatV(math.Copysign(0, -1))}

	// Contributors: a group's running count stops at its number of distinct
	// contributors. The third column keeps the input facts distinct even where
	// the contributors are identical.
	res := runProg(t, `c(G, N) :- s(G, X, T), N = mcount(<X>).`, func(db *Database) {
		for g, xs := range map[string][]value.Value{"one": one, "nan": nans, "zero": zeros} {
			for i, x := range xs {
				db.MustAddFact("s", value.Str(g), x, value.IntV(int64(i)))
			}
		}
	})
	maxN := map[string]int64{}
	for _, f := range res.DB.Facts("c") {
		maxN[f[0].S] = max(maxN[f[0].S], f[1].I)
	}
	if want := map[string]int64{"one": 3, "nan": 1, "zero": 2}; fmt.Sprint(maxN) != fmt.Sprint(want) {
		t.Errorf("distinct contributors per group = %v, want %v", maxN, want)
	}

	// Groups: each fact contributes a fresh T, so a group's running count is
	// the number of facts whose X falls into it.
	res = runProg(t, `g(X, N) :- s(X, T), N = mcount(<T>).`, func(db *Database) {
		for i, x := range append(append(append([]value.Value(nil), one...), nans...), zeros...) {
			db.MustAddFact("s", x, value.IntV(int64(i)))
		}
	})
	want := []string{
		encodeKey(Fact{value.IntV(1), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(1), value.IntV(1)}),
		encodeKey(Fact{value.Str("1"), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(math.NaN()), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(math.NaN()), value.IntV(2)}),
		encodeKey(Fact{value.FloatV(0), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(math.Copysign(0, -1)), value.IntV(1)}),
	}
	sort.Strings(want)
	if got := outputKeys(res.DB, "g"); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("group facts = %q, want %q", got, want)
	}

	// Stratified groups: each group emits once, with the number of facts
	// whose X falls into it.
	res = runProg(t, `g(X, N) :- s(X, T), N = count().`, func(db *Database) {
		for i, x := range append(append(append([]value.Value(nil), one...), nans...), zeros...) {
			db.MustAddFact("s", x, value.IntV(int64(i)))
		}
	})
	want = []string{
		encodeKey(Fact{value.IntV(1), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(1), value.IntV(1)}),
		encodeKey(Fact{value.Str("1"), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(math.NaN()), value.IntV(2)}),
		encodeKey(Fact{value.FloatV(0), value.IntV(1)}),
		encodeKey(Fact{value.FloatV(math.Copysign(0, -1)), value.IntV(1)}),
	}
	sort.Strings(want)
	if got := outputKeys(res.DB, "g"); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("stratified group facts = %q, want %q", got, want)
	}
}

// TestIntegerSumExact: sums and products of Ints stay exact past 2^53, where
// a float64 running value rounds, in the monotonic and the stratified fold;
// they fall back to a float only on int64
// overflow or on the first non-Int input.
func TestIntegerSumExact(t *testing.T) {
	const big = 9007199254740993 // 2^53 + 1: no float64 holds it
	setup := func(db *Database) {
		db.MustAddFact("p", value.IntV(1), value.IntV(1), value.IntV(big))
		db.MustAddFact("p", value.IntV(1), value.IntV(2), value.IntV(2))
	}
	cases := []struct {
		name, src string
		want      []string
	}{
		{"msum", `s(X, V) :- p(X, Y, W), V = msum(W, <Y>).`, []string{"(1,9007199254740993)", "(1,9007199254740995)"}},
		{"sum", `s(X, V) :- p(X, Y, W), V = sum(W).`, []string{"(1,9007199254740995)"}},
		{"mprod", `s(X, V) :- p(X, Y, W), V = mprod(W, <Y>).`, []string{"(1,9007199254740993)", "(1,18014398509481986)"}},
		{"prod", `s(X, V) :- p(X, Y, W), V = prod(W).`, []string{"(1,18014398509481986)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := factStrings(runProg(t, tc.src, setup).Output("s")); strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("s = %v, want %v", got, tc.want)
			}
		})
	}

	// Past int64 the result is the float fold, and so it is after one Float
	// input.
	for _, tc := range []struct {
		name string
		ws   []value.Value
		want string
	}{
		{"overflow", []value.Value{value.IntV(math.MaxInt64), value.IntV(1)}, "(1,9.223372036854776e+18)"},
		{"float input", []value.Value{value.IntV(1), value.FloatV(0.5)}, "(1,1.5)"},
	} {
		res := runProg(t, `s(X, V) :- p(X, Y, W), V = sum(W).`, func(db *Database) {
			for i, w := range tc.ws {
				db.MustAddFact("p", value.IntV(1), value.IntV(int64(i)), w)
			}
		})
		got := res.Output("s")
		if len(got) != 1 || got[0].String() != tc.want {
			t.Errorf("%s: s = %v, want %s", tc.name, factStrings(got), tc.want)
		}
		if len(got) == 1 && got[0][1].K != value.Float {
			t.Errorf("%s: kind %s, want float", tc.name, got[0][1].K)
		}
	}
}

// monoOracle is the reference semantics of a non-recursive monotonic
// aggregate rule over one atom: the body matches arrive in insertion order,
// each group accumulates every contributor tuple it has not seen before, and
// every accepted contribution emits the group with its running value. Groups
// and contributors are told apart by their encodeKey strings.
func monoOracle(facts []Fact, op string, groupCols, contribCols []int, argCol int) []string {
	type acc struct {
		seen  map[string]bool
		val   value.Value
		count int64
	}
	groups := map[string]*acc{}
	emitted := map[string]bool{}
	pick := func(f Fact, cols []int) []value.Value {
		out := make([]value.Value, len(cols))
		for i, c := range cols {
			out[i] = f[c]
		}
		return out
	}
	for _, f := range facts {
		group := pick(f, groupCols)
		gkey := encodeKey(group)
		a := groups[gkey]
		if a == nil {
			a = &acc{seen: map[string]bool{}}
			switch op {
			case "msum":
				a.val = value.IntV(0)
			}
			groups[gkey] = a
		}
		ckey := encodeKey(pick(f, contribCols))
		if a.seen[ckey] {
			continue
		}
		a.seen[ckey] = true
		w := f[argCol]
		switch op {
		case "msum":
			a.val, _ = value.Add(a.val, w)
		case "mcount":
			a.val = value.IntV(a.count + 1)
		case "mmin":
			if a.count == 0 || value.Compare(w, a.val) < 0 {
				a.val = w
			}
		case "mmax":
			if a.count == 0 || value.Compare(w, a.val) > 0 {
				a.val = w
			}
		}
		a.count++
		emitted[encodeKey(append(group, a.val))] = true
	}
	out := make([]string, 0, len(emitted))
	for k := range emitted {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMonotonicAggDifferential runs random msum/mcount/mmin/mmax rules with
// random group and contributor widths over inputs mixing value kinds, NaN
// payloads and signed zeros, and compares the engine's emissions with
// monoOracle's.
func TestMonotonicAggDifferential(t *testing.T) {
	keys := []value.Value{
		value.IntV(1), value.FloatV(1), value.Str("1"), value.IntV(2), value.Str("a"),
		value.FloatV(math.NaN()), value.FloatV(math.Float64frombits(0x7ff8000000000001)),
		value.FloatV(0), value.FloatV(math.Copysign(0, -1)), value.NullV(1),
	}
	weights := []value.Value{
		value.IntV(1), value.IntV(2), value.IntV(-3), value.IntV(40),
		value.FloatV(0.5), value.FloatV(0.25), value.FloatV(math.Copysign(0, -1)),
	}
	vars := []string{"A", "B", "C", "D"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op := []string{"msum", "mcount", "mmin", "mmax"}[rng.Intn(4)]
		// Columns 0-3 are keys, column 4 the weight; group and contributor
		// columns are disjoint subsets of the keys.
		perm := rng.Perm(4)
		gw := rng.Intn(3)
		cw := 1 + rng.Intn(2)
		groupCols, contribCols := perm[:gw], perm[gw:gw+cw]
		sort.Ints(groupCols) // head variables group in sorted name order

		var head []string
		for _, c := range groupCols {
			head = append(head, vars[c])
		}
		var contrib []string
		for _, c := range contribCols {
			contrib = append(contrib, vars[c])
		}
		agg := fmt.Sprintf("%s(W, <%s>)", op, strings.Join(contrib, ","))
		if op == "mcount" {
			agg = fmt.Sprintf("mcount(<%s>)", strings.Join(contrib, ","))
		}
		src := fmt.Sprintf("out(%s) :- in(A, B, C, D, W), V = %s.",
			strings.Join(append(head, "V"), ", "), agg)

		db := NewDatabase()
		for i, n := 0, 5+rng.Intn(40); i < n; i++ {
			f := make([]value.Value, 5)
			for c := 0; c < 4; c++ {
				f[c] = keys[rng.Intn(len(keys))]
			}
			f[4] = weights[rng.Intn(len(weights))]
			if _, err := db.AddFact("in", f...); err != nil {
				t.Fatal(err)
			}
		}
		want := monoOracle(db.Facts("in"), op, groupCols, contribCols, 4)
		res, err := Run(MustParse(src), db, Options{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, src, err)
		}
		if got := outputKeys(res.DB, "out"); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("seed %d: %s\n got %q\nwant %q", seed, src, got, want)
		}
	}
}

// TestMonotonicAggFailedFoldNotAdmitted: a resumed batch whose contributor
// fails to fold errors, and the maintainer is left exactly as before it; a
// later batch then equals a fresh run, which does not see the failed
// contributor.
func TestMonotonicAggFailedFoldNotAdmitted(t *testing.T) {
	prog := MustParse(`s(X, V) :- p(X, Y, W), V = msum(W, <Y>).`)
	db := NewDatabase()
	db.MustAddFact("p", value.IntV(1), value.IntV(1), value.FloatV(0.5))
	m, err := NewMaintainer(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := m.DB().Dump()
	d := NewDelta()
	d.AddFact("p", value.IntV(1), value.IntV(2), value.Str("oops"))
	if _, err := m.Apply(d); err == nil {
		t.Fatal("a batch over a non-numeric weight succeeded")
	}
	if got := m.DB().Dump(); got != before {
		t.Fatalf("failed batch left the database changed:\n%s", got)
	}
	d = NewDelta()
	d.AddFact("p", value.IntV(1), value.IntV(3), value.FloatV(0.25))
	applyResumed(t, m, d)
	maintainerVsFresh(t, m, prog)
	if got := factStrings(m.DB().SortedFacts("s")); len(got) != 2 || got[1] != "(1,0.75)" {
		t.Errorf("s = %v, want the running sums 0.5 and 0.75", got)
	}
}
