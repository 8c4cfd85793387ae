package models

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/pg"
	"repro/internal/supermodel"
	"repro/internal/value"
)

// Attribute-modifier enforcement: Section 3.2 introduces the
// SM_AttributeModifier family precisely so business constraints live in the
// design ("the SM_EnumAttributeModifier lists all the values an attribute
// may have"). ValidateModifiers checks a property-graph data instance
// against the modifiers of the super-schema directly — complementing
// ValidateInstance, which works on the translated view where only the
// uniqueness modifier survives into the PG model.

// ValidateModifiers checks every node of the instance against the enum,
// range and default modifiers of its (effective) attributes. Nodes are
// matched to schema types by their most specific label
// (Schema.MostSpecificType, the decision Algorithm 2's load makes); a label
// set with no single one is a violation.
func ValidateModifiers(g pg.View, s *supermodel.Schema) []Violation {
	var out []Violation
	report := func(subject, detail string, args ...any) {
		out = append(out, Violation{Kind: "modifier", Subject: subject, Detail: fmt.Sprintf(detail, args...)})
	}
	for _, n := range g.Nodes() {
		subject := fmt.Sprintf("node %d", n.ID)
		typ, err := s.MostSpecificType(n.Labels)
		if errors.Is(err, supermodel.ErrNoSchemaLabel) {
			continue // unknown labels are ValidateInstance's business
		}
		if err != nil {
			report(subject, "%v", err) // Algorithm 2 refuses to load this node
			continue
		}
		for _, a := range s.EffectiveAttributes(typ) {
			v, has := n.Props[a.Name]
			if !has {
				continue
			}
			for _, m := range a.Modifiers {
				switch m := m.(type) {
				case supermodel.EnumModifier:
					ok := false
					for _, allowed := range m.Values {
						if v.K == value.String && v.S == allowed {
							ok = true
						}
					}
					if !ok {
						report(subject, "property %s value %q not in enum %v", a.Name, v.String(), m.Values)
					}
				case supermodel.RangeModifier:
					f, isNum := v.AsFloat()
					if !isNum {
						report(subject, "property %s has range modifier but non-numeric value %s", a.Name, v)
						continue
					}
					if f < m.Min || f > m.Max {
						report(subject, "property %s value %g outside range [%g, %g]", a.Name, f, m.Min, m.Max)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// ApplyDefaults fills absent properties that carry a default modifier,
// returning the number of properties set. Defaults parse with the
// attribute's data type (falling back to the raw string).
func ApplyDefaults(g *pg.Graph, s *supermodel.Schema) int {
	set := 0
	for _, n := range g.Nodes() {
		typ, err := s.MostSpecificType(n.Labels)
		if err != nil {
			continue // no type to take defaults from; ValidateModifiers reports it
		}
		for _, a := range s.EffectiveAttributes(typ) {
			if _, has := n.Props[a.Name]; has {
				continue
			}
			for _, m := range a.Modifiers {
				if d, ok := m.(supermodel.DefaultModifier); ok {
					n.Props[a.Name] = parseTyped(d.Value, a.Type)
					set++
				}
			}
		}
	}
	return set
}

func parseTyped(raw string, t supermodel.DataType) value.Value {
	switch t {
	case supermodel.Int, supermodel.Float, supermodel.Bool:
		if v, err := value.ParseLiteral(raw); err == nil {
			return v
		}
	}
	return value.Str(raw)
}
