package instance

import (
	"slices"
	"testing"

	"repro/internal/metalog"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// TestInputRowsOutliveFlush: the input views are the instance as it was
// loaded. After a Materialize whose Σ updates a loaded entity — Example
// 6.1's count over a business that already holds a stale one — the run's
// database still reads the loaded value in that entity's input fact, while
// the loaded instance and the rendered dictionary hold the flushed one.
func TestInputRowsOutliveFlush(t *testing.T) {
	d, err := NewDictionary(supermodel.CompanyKG())
	if err != nil {
		t.Fatal(err)
	}
	g, biz := example61Data()
	if err := g.SetNodeProp(biz, "numberOfStakeholders", value.IntV(5)); err != nil {
		t.Fatal(err)
	}
	res, err := Materialize(d, PGSource{Data: g}, metalog.MustParse(example61Sigma), 1, vadalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ioid int64
	for _, ent := range res.Loaded.Entities {
		if ent.Type == "Business" {
			ioid = int64(ent.IOID)
			if v, _ := ent.Attrs.Get("numberOfStakeholders"); !value.Identical(v, value.IntV(1)) {
				t.Errorf("loaded entity holds numberOfStakeholders %v after the flush, want 1", v)
			}
		}
	}
	col := 1 + slices.Index(res.Catalog.NodeProps["Business"], "numberOfStakeholders")
	facts := res.DB.Facts("Business")
	if len(facts) != 1 || facts[0][0].I != ioid || !value.Identical(facts[0][col], value.IntV(5)) {
		t.Errorf("Business input facts after the flush = %v, want the entity %d with numberOfStakeholders 5", facts, ioid)
	}

	dict, err := d.Constructs()
	if err != nil {
		t.Fatal(err)
	}
	var values []value.Value
	for _, ia := range dict.NodesByLabel(LIAttr) {
		for _, e := range dict.Out(ia.ID) {
			if e.Label == LRefs && dict.Node(e.To).Props["name"].S == "numberOfStakeholders" {
				values = append(values, ia.Props["value"])
			}
		}
	}
	if len(values) != 1 || !value.Identical(values[0], value.IntV(1)) {
		t.Errorf("numberOfStakeholders twins in the dictionary hold %v, want [1]", values)
	}
}
