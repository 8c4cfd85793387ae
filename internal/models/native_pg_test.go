package models

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gsl"
	"repro/internal/supermodel"
)

// The native Go twin of the PG mapping: the oracle TestPGOracleTable holds
// the MetaLog pipeline to. It computes the typed view ReadPGSchema extracts
// from an SSST-translated dictionary, by walking the super-schema in Go.
// Production never calls it; its relational sibling is NativeToRelational
// (native_relational_test.go).

// oracleDesigns are the super-schemas the PG oracle table translates: the
// Company KG of Figure 4, the quickstart's SupplyChain, and a design with a
// two-level generalization, an intensional node and edge, a unique edge
// attribute and a 0..1 -> 1..1 edge.
var oracleDesigns = []struct {
	name   string
	schema func(t *testing.T) *supermodel.Schema
}{
	{"CompanyKG", func(*testing.T) *supermodel.Schema { return supermodel.CompanyKG() }},
	{"SupplyChain", func(t *testing.T) *supermodel.Schema {
		return mustParseGSL(t, `schema SupplyChain oid 42 {
			node Company {
				vat: string @id @unique
				country: string
			}
			node Product {
				sku: string @id
				price: float @range(0, 1000000)
			}
			edge SUPPLIES (Company 0..N -> 0..N Company) {
				volume: float
			}
			edge MAKES (Company 0..N -> 1..1 Product)
			intensional edge DEPENDS_ON (Company 0..N -> 0..N Company)
		}`)
	}},
	{"Securities", func(t *testing.T) *supermodel.Schema {
		return mustParseGSL(t, `schema Securities oid 500 {
			node Asset {
				code: string @id @unique
				value: float @opt
			}
			node Security {
				isin: string @unique
			}
			node Bond {
				coupon: float
			}
			node Equity {
				votes: int @opt
			}
			node Issuer {
				lei: string @id
				rating: string @opt @intensional
			}
			intensional node Portfolio {
				title: string
			}
			generalization AssetKind of Asset disjoint {
				Security
			}
			generalization SecurityKind of Security total disjoint {
				Bond
				Equity
			}
			edge ISSUED_BY (Security 0..N -> 1..1 Issuer)
			edge GUARANTEED_BY (Bond 0..1 -> 1..1 Issuer) {
				contract: string @unique
				since: date @opt
			}
			intensional edge EXPOSED_TO (Issuer 0..N -> 0..N Asset) {
				weight: float
			}
			intensional edge HELD_IN (Asset 0..N -> 0..N Portfolio)
		}`)
	}},
}

func mustParseGSL(t *testing.T, src string) *supermodel.Schema {
	t.Helper()
	s, err := gsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPGOracleTable: for every design and both PG strategies, the view
// ReadPGSchema reads from SSST's target schema equals the native twin's.
func TestPGOracleTable(t *testing.T) {
	for _, d := range oracleDesigns {
		for _, strategy := range []string{"multi-label", "child-edges"} {
			t.Run(d.name+"/"+strategy, func(t *testing.T) {
				s := d.schema(t)
				res, err := TranslateSchema(s, "pg", strategy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ReadPGSchema(res.Dict, res.Mapping.TargetOID)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NativeToPG(s, strategy)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Nodes) == 0 || len(got.Rels) == 0 {
					t.Fatalf("empty view: %+v", got)
				}
				if !reflect.DeepEqual(got.Nodes, want.Nodes) {
					t.Errorf("PG node views differ.\nSSST:   %+v\nNative: %+v", got.Nodes, want.Nodes)
				}
				if !reflect.DeepEqual(got.Rels, want.Rels) {
					t.Errorf("PG relationship views differ (%d vs %d).\nSSST:   %+v\nNative: %+v",
						len(got.Rels), len(want.Rels), got.Rels, want.Rels)
				}
			})
		}
	}
}

func toPropView(a *supermodel.Attribute) PropView {
	pv := PropView{
		Name:          a.Name,
		DataType:      string(a.Type),
		IsOpt:         a.IsOpt,
		IsID:          a.IsID,
		IsIntensional: a.IsIntensional,
	}
	for _, m := range a.Modifiers {
		if _, ok := m.(supermodel.UniqueModifier); ok {
			pv.Unique = true
		}
	}
	return pv
}

func sortProps(ps []PropView) []PropView {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// labelSet returns the multi-label tag set of a node: its own type plus
// every ancestor type, sorted.
func labelSet(s *supermodel.Schema, node string) []string {
	labels := append([]string{node}, s.Ancestors(node)...)
	sort.Strings(labels)
	return labels
}

func descOrSelf(s *supermodel.Schema, node string) []string {
	out := append([]string{node}, s.Descendants(node)...)
	sort.Strings(out)
	return out
}

// NativeToPG computes the property-graph schema view the SSST PG mapping
// produces, without going through MetaLog.
func NativeToPG(s *supermodel.Schema, strategy string) (*PGSchemaView, error) {
	switch strategy {
	case "", "multi-label":
		return nativePGMultiLabel(s), nil
	case "child-edges":
		return nativePGChildEdges(s), nil
	default:
		return nil, fmt.Errorf("models: unknown PG strategy %q", strategy)
	}
}

func nativePGMultiLabel(s *supermodel.Schema) *PGSchemaView {
	v := &PGSchemaView{}
	for _, n := range s.Nodes {
		var props []PropView
		for _, a := range s.EffectiveAttributes(n.Name) {
			props = append(props, toPropView(a))
		}
		v.Nodes = append(v.Nodes, PGNodeView{
			Labels:        labelSet(s, n.Name),
			Properties:    sortProps(props),
			IsIntensional: n.IsIntensional,
		})
	}
	for _, e := range s.Edges {
		var props []PropView
		for _, a := range e.Attributes {
			pv := toPropView(a)
			pv.Unique = false // edge-attribute modifiers are not part of the PG model
			props = append(props, pv)
		}
		props = sortProps(props)
		// Outgoing inheritance: one relationship per descendant-or-self of
		// the source (the self case is the original edge).
		for _, c := range descOrSelf(s, e.From) {
			v.Rels = append(v.Rels, PGRelView{
				Name:          e.Name,
				FromLabels:    labelSet(s, c),
				ToLabels:      labelSet(s, e.To),
				Properties:    props,
				IsIntensional: e.IsIntensional,
			})
		}
		// Incoming inheritance: proper descendants of the target.
		for _, c := range s.Descendants(e.To) {
			v.Rels = append(v.Rels, PGRelView{
				Name:          e.Name,
				FromLabels:    labelSet(s, e.From),
				ToLabels:      labelSet(s, c),
				Properties:    props,
				IsIntensional: e.IsIntensional,
			})
		}
	}
	sortPGView(v)
	return v
}

func nativePGChildEdges(s *supermodel.Schema) *PGSchemaView {
	v := &PGSchemaView{}
	for _, n := range s.Nodes {
		var props []PropView
		for _, a := range n.Attributes {
			props = append(props, toPropView(a))
		}
		v.Nodes = append(v.Nodes, PGNodeView{
			Labels:        []string{n.Name},
			Properties:    sortProps(props),
			IsIntensional: n.IsIntensional,
		})
	}
	for _, e := range s.Edges {
		var props []PropView
		for _, a := range e.Attributes {
			pv := toPropView(a)
			pv.Unique = false
			props = append(props, pv)
		}
		v.Rels = append(v.Rels, PGRelView{
			Name:          e.Name,
			FromLabels:    []string{e.From},
			ToLabels:      []string{e.To},
			Properties:    sortProps(props),
			IsIntensional: e.IsIntensional,
		})
	}
	for _, g := range s.Generalizations {
		for _, c := range g.Children {
			v.Rels = append(v.Rels, PGRelView{
				Name:       "IS_A_" + c + "_" + g.Parent,
				FromLabels: []string{c},
				ToLabels:   []string{g.Parent},
			})
		}
	}
	sortPGView(v)
	return v
}
