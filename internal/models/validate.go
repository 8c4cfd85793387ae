package models

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/pg"
	"repro/internal/value"
)

// Instance validation: Section 5 notes that for schema-less systems like
// graph databases, translated schemas "can be enforced with ad-hoc
// methodologies" (citing Bonifati et al. on schema validation for graph
// databases). This file implements that enforcement for property-graph
// instances: ValidateInstance checks a data graph against the PGSchemaView
// SSST produces — label sets, property presence and types, identifier and
// uniqueness values, and relationship signatures. It checks no
// cardinalities: the PG view carries none, and ValidateCardinalities, which
// reads them off the super-schema, has no production caller yet.

// Violation is one schema violation found in a data instance.
type Violation struct {
	Kind    string // unknown-label, missing-property, bad-type, not-unique, unknown-relationship, bad-endpoint, cardinality
	Subject string // "node 12", "edge 33", ...
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Kind, v.Subject, v.Detail)
}

// typeMatches checks a value against a super-model data type.
func typeMatches(v value.Value, dataType string) bool {
	switch dataType {
	case "string", "date":
		return v.K == value.String
	case "int":
		return v.K == value.Int
	case "float":
		_, ok := v.AsFloat()
		return ok
	case "bool":
		return v.K == value.Bool
	default:
		return true
	}
}

// ValidateInstance checks a property-graph data instance against a
// translated PG schema view. Derived/intensional constructs are validated
// like extensional ones (they conform to the same schema once materialized);
// labels and relationship types absent from the schema are violations.
// The returned violations are deterministic and sorted.
func ValidateInstance(g pg.View, view *PGSchemaView) []Violation {
	var out []Violation
	report := func(kind, subject, detail string, args ...any) {
		out = append(out, Violation{Kind: kind, Subject: subject, Detail: fmt.Sprintf(detail, args...)})
	}

	// Index the schema: label-set signature -> node view; every label known;
	// each node view's primary label, which scopes its identifier and unique
	// values.
	nodeBySig := map[string]*PGNodeView{}
	knownLabel := map[string]bool{}
	primary := map[*PGNodeView]string{}
	for i := range view.Nodes {
		nv := &view.Nodes[i]
		nodeBySig[strings.Join(nv.Labels, ":")] = nv
		primary[nv] = nv.PrimaryLabel(view.Nodes)
		for _, l := range nv.Labels {
			knownLabel[l] = true
		}
	}
	relByName := map[string][]PGRelView{}
	for _, rv := range view.Rels {
		relByName[rv.Name] = append(relByName[rv.Name], rv)
	}

	// Track unique-property values per (label, property).
	uniqueSeen := map[string]map[string]pg.OID{}

	nodeView := map[pg.OID]*PGNodeView{}
	g.ScanNodes(func(n *pg.NodeRow) bool {
		subject := fmt.Sprintf("node %d", n.ID)
		for _, l := range n.Labels {
			if !knownLabel[l] {
				report("unknown-label", subject, "label %s is not part of the schema", l)
			}
		}
		nv, ok := nodeBySig[strings.Join(n.Labels, ":")]
		if !ok {
			report("unknown-label", subject, "label set %v matches no schema node type", n.Labels)
			return true
		}
		nodeView[n.ID] = nv
		for _, p := range nv.Properties {
			v, has := n.Props.Get(p.Name)
			if !has {
				if !p.IsOpt && !p.IsIntensional {
					report("missing-property", subject, "required property %s absent", p.Name)
				}
				continue
			}
			if !typeMatches(v, p.DataType) {
				report("bad-type", subject, "property %s has kind %s, want %s", p.Name, v.K, p.DataType)
			}
			if p.IsID || p.Unique {
				key := primary[nv] + "." + p.Name
				seen := uniqueSeen[key]
				if seen == nil {
					seen = map[string]pg.OID{}
					uniqueSeen[key] = seen
				}
				ck := v.Canonical()
				if prev, dup := seen[ck]; dup {
					report("not-unique", subject, "property %s value %s already used by node %d", p.Name, v, prev)
				} else {
					seen[ck] = n.ID
				}
			}
		}
		// Properties not in the schema.
		var extra []string
		declared := map[string]bool{}
		for _, p := range nv.Properties {
			declared[p.Name] = true
		}
		for _, p := range n.Props {
			// Underscore-prefixed properties are framework bookkeeping
			// (e.g. _derivedOID from materialization), not schema data.
			if !declared[p.Key] && !strings.HasPrefix(p.Key, "_") {
				extra = append(extra, p.Key)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			report("unknown-property", subject, "property %s is not declared for %v", k, n.Labels)
		}
		return true
	})

	// Relationship signatures: the edge's endpoints must match one of the
	// schema's (FromLabels, ToLabels) pairs for that relationship name.
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		subject := fmt.Sprintf("edge %d (%s)", e.ID, e.Label)
		views, ok := relByName[e.Label]
		if !ok {
			report("unknown-relationship", subject, "relationship type %s is not part of the schema", e.Label)
			return true
		}
		fromV, toV := nodeView[e.From], nodeView[e.To]
		if fromV == nil || toV == nil {
			return true // endpoint already reported as unknown
		}
		matched := false
		var sig PGRelView
		for _, rv := range views {
			if strings.Join(rv.FromLabels, ":") == strings.Join(fromV.Labels, ":") &&
				strings.Join(rv.ToLabels, ":") == strings.Join(toV.Labels, ":") {
				matched = true
				sig = rv
				break
			}
		}
		if !matched {
			report("bad-endpoint", subject, "no %s signature matches %v -> %v", e.Label, fromV.Labels, toV.Labels)
			return true
		}
		for _, p := range sig.Properties {
			v, has := e.Props.Get(p.Name)
			if !has {
				if !p.IsOpt && !p.IsIntensional {
					report("missing-property", subject, "required property %s absent", p.Name)
				}
				continue
			}
			if !typeMatches(v, p.DataType) {
				report("bad-type", subject, "property %s has kind %s, want %s", p.Name, v.K, p.DataType)
			}
		}
		return true
	})

	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// ValidateCardinalities checks the isFun/isOpt participation constraints of
// a super-schema against a data instance: a source-functional edge type
// allows at most one outgoing edge per source node, a mandatory side
// requires at least one. It complements ValidateInstance, which works on
// the translated view (where cardinalities have been lowered into FK shape).
func ValidateCardinalities(g pg.View, edgeName string, fromMax1, fromMandatory bool, fromLabel string) []Violation {
	var out []Violation
	count := map[pg.OID]int{}
	g.ScanEdges(func(e *pg.EdgeRow) bool {
		if e.Label == edgeName {
			count[e.From]++
		}
		return true
	})
	g.ScanNodes(func(n *pg.NodeRow) bool {
		if !slices.Contains(n.Labels, fromLabel) {
			return true
		}
		c := count[n.ID]
		subject := fmt.Sprintf("node %d", n.ID)
		if fromMax1 && c > 1 {
			out = append(out, Violation{Kind: "cardinality", Subject: subject,
				Detail: fmt.Sprintf("%d outgoing %s edges, at most 1 allowed", c, edgeName)})
		}
		if fromMandatory && c == 0 {
			out = append(out, Violation{Kind: "cardinality", Subject: subject,
				Detail: fmt.Sprintf("no outgoing %s edge, participation is mandatory", edgeName)})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}
