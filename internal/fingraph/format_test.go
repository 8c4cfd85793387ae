package fingraph

import (
	"strings"
	"testing"
)

// TestCodeWidthSelection pins the fiscal-code width by scale: eight digits
// up to 10⁸ entities of one kind, as wide as the largest index past that,
// whichever kind holds it.
func TestCodeWidthSelection(t *testing.T) {
	for _, c := range []struct {
		persons, companies, width int
	}{
		{0, 0, 8},
		{1, 1, 8},
		{324, 200, 8},
		{100_000_000, 5, 8},     // largest index 99,999,999
		{5, 100_000_000, 8},     // either kind
		{100_000_001, 5, 9},     // largest index 100,000,000
		{5, 200_000_000, 9},     // either kind
		{1_000_000_000, 0, 9},   // largest index 999,999,999
		{1_000_000_001, 0, 10},  // largest index 1,000,000,000
		{0, 10_000_000_000, 10}, // largest index 9,999,999,999
		{10_000_000_001, 1, 11}, // past 10¹⁰
	} {
		if got := codeWidth(c.persons, c.companies); got != c.width {
			t.Errorf("codeWidth(%d persons, %d companies) = %d, want %d", c.persons, c.companies, got, c.width)
		}
	}
}

// TestCodeFormatBoundary pins the fixed-width code contract on both sides of
// the 10⁸ boundary: every code of a graph has its width, so "PF100000000"
// never sorts before "PF99999999" — at 10⁸+1 persons both are nine digits.
func TestCodeFormatBoundary(t *testing.T) {
	w8 := codeWidth(100_000_000, 0)
	if got := personCode(w8, 0); got != "PF00000000" {
		t.Fatalf("personCode(0) at 10⁸ = %q", got)
	}
	if got := companyCode(w8, 99_999_999); got != "CO99999999" {
		t.Fatalf("companyCode(10⁸-1) at 10⁸ = %q", got)
	}

	w9 := codeWidth(100_000_001, 0)
	first, last, over := personCode(w9, 0), personCode(w9, 99_999_999), personCode(w9, 100_000_000)
	if first != "PF000000000" || over != "PF100000000" {
		t.Fatalf("codes at 10⁸+1 = %q .. %q", first, over)
	}
	if len(last) != len(over) || !(last < over) {
		t.Fatalf("codes broke fixed width or order at 10⁸: %q vs %q", last, over)
	}

	// The kind prefixes stay, so codes remain decodable at any width.
	if !strings.HasPrefix(personCode(w9, 7), "PF") || !strings.HasPrefix(companyCode(w9, 7), "CO") {
		t.Fatalf("codes lost their kind prefixes: %q, %q", personCode(w9, 7), companyCode(w9, 7))
	}
}
