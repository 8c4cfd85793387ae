package sortedset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestInsertRemoveContains(t *testing.T) {
	var s []int64
	for _, v := range []int64{5, 1, 9, 5, 3, 1} {
		s = Insert(s, v)
	}
	want := []int64{1, 3, 5, 9}
	if !slices.Equal(s, want) {
		t.Fatalf("Insert: got %v, want %v", s, want)
	}
	for _, v := range want {
		if !Contains(s, v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	if Contains(s, 4) {
		t.Fatal("Contains(4) = true")
	}
	s = Remove(s, 5)
	s = Remove(s, 42) // absent: no-op
	if want := []int64{1, 3, 9}; !slices.Equal(s, want) {
		t.Fatalf("Remove: got %v, want %v", s, want)
	}
}

// TestAgainstMap drives a random insert/remove sequence and checks the
// slice always matches a reference set.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s []int
	ref := map[int]bool{}
	for i := 0; i < 2000; i++ {
		v := rng.Intn(100)
		if rng.Intn(2) == 0 {
			s = Insert(s, v)
			ref[v] = true
		} else {
			s = Remove(s, v)
			delete(ref, v)
		}
		if len(s) != len(ref) {
			t.Fatalf("step %d: len %d, want %d", i, len(s), len(ref))
		}
		if !sort.IntsAreSorted(s) {
			t.Fatalf("step %d: not sorted: %v", i, s)
		}
	}
	for v := range ref {
		if !Contains(s, v) {
			t.Fatalf("missing %d", v)
		}
	}
}

func TestSort(t *testing.T) {
	s := []uint32{9, 1, 4, 4, 0}
	Sort(s)
	if want := []uint32{0, 1, 4, 4, 9}; !slices.Equal(s, want) {
		t.Fatalf("Sort: got %v, want %v", s, want)
	}
}

func TestKeys(t *testing.T) {
	if got := Keys(map[string]bool{"b": true, "c": false, "a": true}); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys: got %v", got)
	}
	if got := Keys(map[uint64]string(nil)); len(got) != 0 {
		t.Fatalf("Keys(nil): got %v", got)
	}
}
