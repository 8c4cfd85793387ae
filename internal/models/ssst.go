package models

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/metalog"
	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
	"repro/internal/value"
)

// This file implements SSST, the Super-Schema to Schema Translator
// (Algorithm 1 of the paper): given a super-schema S stored in a graph
// dictionary and a mapping M(M) selected from the repository, it runs
// S⁻ ← Reason(S, M(M).Eliminate) and S′ ← Reason(S⁻, M(M).Copy), both as
// MetaLog programs compiled by MTV and executed by the Vadalog engine over
// the dictionary itself.

// TranslateResult reports the outcome of one SSST run. The intermediate
// super-schema S⁻ (MidOID) and the target schema S′ (TargetOID) are
// materialized into the same dictionary graph.
type TranslateResult struct {
	Mapping Mapping
	Dict    *pg.Graph

	EliminateStats metalog.MaterializeStats
	CopyStats      metalog.MaterializeStats
	EliminateRun   vadalog.RunStats
	CopyRun        vadalog.RunStats
}

// Translate runs Algorithm 1 over the dictionary.
func Translate(dict *pg.Graph, m Mapping, opts vadalog.Options) (*TranslateResult, error) {
	elimProg, err := metalog.Parse(m.Eliminate)
	if err != nil {
		return nil, fmt.Errorf("models: parsing Eliminate program: %w", err)
	}
	copyProg, err := metalog.Parse(m.Copy)
	if err != nil {
		return nil, fmt.Errorf("models: parsing Copy program: %w", err)
	}
	res := &TranslateResult{Mapping: m, Dict: dict}

	// Line 4: S⁻ ← Reason(S, M(M).Eliminate).
	elim, err := metalog.Reason(context.TODO(), elimProg, dict, opts)
	if err != nil {
		return nil, fmt.Errorf("models: Eliminate phase: %w", err)
	}
	res.EliminateStats = elim.Materialize
	res.EliminateRun = elim.RunStats

	// Line 5: S′ ← Reason(S⁻, M(M).Copy).
	cp, err := metalog.Reason(context.TODO(), copyProg, dict, opts)
	if err != nil {
		return nil, fmt.Errorf("models: Copy phase: %w", err)
	}
	res.CopyStats = cp.Materialize
	res.CopyRun = cp.RunStats
	return res, nil
}

// TranslateSchema runs Algorithm 1 for a super-schema: it stores the schema
// into a fresh dictionary, selects the mapping for the target model and
// strategy ("" picks the model's default), and translates. S⁻ and S′ take the
// OIDs right above the schema's. A schema that fails Validate is refused
// before anything is stored: the dictionary encoding assumes its references
// resolve.
func TranslateSchema(s *supermodel.Schema, model, strategy string) (*TranslateResult, error) {
	m, err := SelectMapping(s.OID, s.OID+1, s.OID+2, model, strategy)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dict := supermodel.NewDictionary()
	if err := supermodel.ToDictionary(s, dict); err != nil {
		return nil, err
	}
	return Translate(dict, m, vadalog.Options{})
}

// --- Typed views over translated schemas -------------------------------

// PropView is one property/field of a translated schema.
type PropView struct {
	Name          string
	DataType      string
	IsOpt         bool
	IsID          bool
	IsIntensional bool
	Unique        bool
}

// PGNodeView is a node type of a translated property-graph schema: the set
// of labels it carries (multi-label tagging accumulates ancestor types) and
// its properties.
type PGNodeView struct {
	Labels        []string // sorted
	Properties    []PropView
	IsIntensional bool
}

// PrimaryLabel returns the most specific label under multi-label tagging:
// by construction it is the label carried by no other node view that has a
// superset label set; for practical purposes the first label unique to this
// node, falling back to the first label.
func (n PGNodeView) PrimaryLabel(all []PGNodeView) string {
	counts := map[string]int{}
	for _, o := range all {
		for _, l := range o.Labels {
			counts[l]++
		}
	}
	for _, l := range n.Labels {
		if counts[l] == 1 {
			return l
		}
	}
	if len(n.Labels) > 0 {
		return n.Labels[0]
	}
	return ""
}

// PGRelView is a relationship type of a translated property-graph schema.
type PGRelView struct {
	Name          string
	FromLabels    []string
	ToLabels      []string
	Properties    []PropView
	IsIntensional bool
}

// PGSchemaView is the typed view of a property-graph schema stored in the
// dictionary (Figure 6).
type PGSchemaView struct {
	Nodes []PGNodeView
	Rels  []PGRelView
}

func readProps(dict *pg.Graph, owner pg.OID, edgeLabel string) []PropView {
	var out []PropView
	for _, e := range dict.Out(owner) {
		if e.Label != edgeLabel {
			continue
		}
		p := dict.Node(e.To)
		pv := PropView{
			Name:          p.Props["name"].S,
			DataType:      p.Props["dataType"].S,
			IsOpt:         p.Props["isOpt"].B,
			IsID:          p.Props["isId"].B,
			IsIntensional: e.Props["isIntensional"].B,
		}
		for _, me := range dict.Out(p.ID) {
			if me.Label == "HAS_MODIFIER" && dict.Node(me.To).HasLabel("UniquePropertyModifier") {
				pv.Unique = true
			}
		}
		out = append(out, pv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func inSchema(n *pg.Node, oid int64) bool {
	so, ok := n.Props["schemaOID"]
	return ok && so.K == value.Int && so.I == oid
}

// ReadPGSchema builds the typed view of the property-graph schema with the
// given schemaOID from the dictionary.
func ReadPGSchema(dict *pg.Graph, oid int64) (*PGSchemaView, error) {
	v := &PGSchemaView{}
	labelsOf := map[pg.OID][]string{}
	for _, n := range dict.NodesByLabel("Node") {
		if !inSchema(n, oid) {
			continue
		}
		var labels []string
		for _, e := range dict.Out(n.ID) {
			if e.Label == "HAS_LABEL" {
				labels = append(labels, dict.Node(e.To).Props["name"].S)
			}
		}
		sort.Strings(labels)
		if len(labels) == 0 {
			return nil, fmt.Errorf("models: PG node %d has no labels", n.ID)
		}
		labelsOf[n.ID] = labels
		v.Nodes = append(v.Nodes, PGNodeView{
			Labels:        labels,
			Properties:    readProps(dict, n.ID, "HAS_PROPERTY"),
			IsIntensional: n.Props["isIntensional"].B,
		})
	}
	for _, r := range dict.NodesByLabel("Relationship") {
		if !inSchema(r, oid) {
			continue
		}
		rv := PGRelView{
			Name:          r.Props["name"].S,
			Properties:    readProps(dict, r.ID, "R_HAS_PROPERTY"),
			IsIntensional: r.Props["isIntensional"].B,
		}
		for _, e := range dict.Out(r.ID) {
			switch e.Label {
			case "R_FROM":
				rv.FromLabels = labelsOf[e.To]
			case "R_TO":
				rv.ToLabels = labelsOf[e.To]
			}
		}
		v.Rels = append(v.Rels, rv)
	}
	sortPGView(v)
	return v, nil
}

// sortPGView puts a view in its canonical order: node views by label set,
// relationship views by name, then source and target label sets.
func sortPGView(v *PGSchemaView) {
	sort.Slice(v.Nodes, func(i, j int) bool {
		return fmt.Sprint(v.Nodes[i].Labels) < fmt.Sprint(v.Nodes[j].Labels)
	})
	sort.Slice(v.Rels, func(i, j int) bool {
		if v.Rels[i].Name != v.Rels[j].Name {
			return v.Rels[i].Name < v.Rels[j].Name
		}
		if a, b := fmt.Sprint(v.Rels[i].FromLabels), fmt.Sprint(v.Rels[j].FromLabels); a != b {
			return a < b
		}
		return fmt.Sprint(v.Rels[i].ToLabels) < fmt.Sprint(v.Rels[j].ToLabels)
	})
}

// FKView is a foreign key of a translated relational schema.
type FKView struct {
	Name           string
	TargetRelation string
	SourceFields   []string // sorted
}

// RelationView is a relation of a translated relational schema (Figure 8):
// its own fields plus foreign keys referencing other relations.
type RelationView struct {
	Name          string
	Fields        []PropView
	ForeignKeys   []FKView
	IsIntensional bool
}

// Field returns the field with the given name, or nil.
func (r *RelationView) Field(name string) *PropView {
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			return &r.Fields[i]
		}
	}
	return nil
}

// RelationalSchemaView is the typed view of a relational schema stored in
// the dictionary.
type RelationalSchemaView struct {
	Relations []RelationView
}

// Relation returns the relation with the given name, or nil.
func (v *RelationalSchemaView) Relation(name string) *RelationView {
	for i := range v.Relations {
		if v.Relations[i].Name == name {
			return &v.Relations[i]
		}
	}
	return nil
}

// ReadRelationalSchema builds the typed view of the relational schema with
// the given schemaOID from the dictionary.
func ReadRelationalSchema(dict *pg.Graph, oid int64) (*RelationalSchemaView, error) {
	v := &RelationalSchemaView{}
	relName := map[pg.OID]string{}
	preds := dict.NodesByLabel("Predicate")
	for _, p := range preds {
		if !inSchema(p, oid) {
			continue
		}
		for _, e := range dict.Out(p.ID) {
			if e.Label == "HAS_RELATION" {
				relName[p.ID] = dict.Node(e.To).Props["name"].S
			}
		}
		if relName[p.ID] == "" {
			return nil, fmt.Errorf("models: predicate %d has no relation", p.ID)
		}
	}
	for _, p := range preds {
		if !inSchema(p, oid) {
			continue
		}
		rv := RelationView{
			Name:          relName[p.ID],
			Fields:        readProps(dict, p.ID, "HAS_FIELD"),
			IsIntensional: p.Props["isIntensional"].B,
		}
		// Foreign keys whose FK_FROM is this predicate.
		for _, fk := range dict.NodesByLabel("ForeignKey") {
			if !inSchema(fk, oid) {
				continue
			}
			var fromPred, toPred pg.OID
			for _, e := range dict.Out(fk.ID) {
				switch e.Label {
				case "FK_FROM":
					fromPred = e.To
				case "FK_TO":
					toPred = e.To
				}
			}
			if fromPred != p.ID {
				continue
			}
			fkv := FKView{Name: fk.Props["name"].S, TargetRelation: relName[toPred]}
			for _, e := range dict.Out(fk.ID) {
				if e.Label == "HAS_SOURCE_FIELD" {
					fkv.SourceFields = append(fkv.SourceFields, dict.Node(e.To).Props["name"].S)
				}
			}
			sort.Strings(fkv.SourceFields)
			rv.ForeignKeys = append(rv.ForeignKeys, fkv)
		}
		sort.Slice(rv.ForeignKeys, func(i, j int) bool { return rv.ForeignKeys[i].Name < rv.ForeignKeys[j].Name })
		v.Relations = append(v.Relations, rv)
	}
	sort.Slice(v.Relations, func(i, j int) bool { return v.Relations[i].Name < v.Relations[j].Name })
	return v, nil
}
