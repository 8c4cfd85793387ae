// Package models implements the model level of KGModel (Section 5): the
// concrete data models a super-schema can be cast into, the translation
// mapping library M(M), and the SSST Super-Schema to Schema Translator
// (Algorithm 1).
//
// A model is represented by specializing and renaming a subset of the
// super-constructs (Figures 5 and 7). The mappings are genuine MetaLog
// programs operating on the graph dictionary: the Eliminate programs rewrite
// the super-schema S into an intermediate super-schema S⁻ that only uses
// constructs the target model supports, and the Copy programs downcast S⁻
// into the target schema S′ by renaming super-constructs into model
// constructs. Both phases are compiled by MTV and executed by the Vadalog
// engine, exactly as in the paper's architecture, and SSST is the only way
// production code gets a PG or relational schema. The native Go twins of the
// mappings (NativeToPG, NativeToRelational) live in test files: they are the
// oracles the MetaLog path is held to, not alternatives to it.
package models

// ConstructSpec declares one construct of a model and the super-construct it
// specializes, as in the "Node: SM_Node" suffix notation of Figure 5.
type ConstructSpec struct {
	Name        string
	Specializes string
}

// Model is a concrete data model.
type Model struct {
	Name       string
	Constructs []ConstructSpec
}

// Construct returns the construct specializing the given super-construct, or
// "" when the model does not support it.
func (m Model) Construct(superConstruct string) string {
	for _, c := range m.Constructs {
		if c.Specializes == superConstruct {
			return c.Name
		}
	}
	return ""
}

// PGModel is the essential property-graph model of Figure 5: labeled nodes
// and relationships with properties, multi-label tagging, a uniqueness
// modifier — and no generalizations.
func PGModel() Model {
	return Model{
		Name: "pg",
		Constructs: []ConstructSpec{
			{"Node", "SM_Node"},
			{"Relationship", "SM_Edge"},
			{"Label", "SM_Type"},
			{"Property", "SM_Attribute"},
			{"UniquePropertyModifier", "SM_UniqueAttributeModifier"},
			{"HAS_LABEL", "SM_HAS_NODE_TYPE"},
			{"R_FROM", "SM_FROM"},
			{"R_TO", "SM_TO"},
			{"HAS_PROPERTY", "SM_HAS_NODE_PROPERTY"},
			{"R_HAS_PROPERTY", "SM_HAS_EDGE_PROPERTY"},
			{"HAS_MODIFIER", "SM_HAS_MODIFIER"},
		},
	}
}

// RelationalModel is the essential relational model of Figure 7: Relations
// with Fields, Predicates connecting them, and ForeignKeys constraining
// source fields to the identifier of the target relation.
func RelationalModel() Model {
	return Model{
		Name: "relational",
		Constructs: []ConstructSpec{
			{"Predicate", "SM_Node"},
			{"Relation", "SM_Type"},
			{"Field", "SM_Attribute"},
			{"ForeignKey", "SM_Edge"},
			{"HAS_RELATION", "SM_HAS_NODE_TYPE"},
			{"HAS_FIELD", "SM_HAS_NODE_PROPERTY"},
			{"FK_FROM", "SM_FROM"},
			{"FK_TO", "SM_TO"},
			{"HAS_SOURCE_FIELD", "SM_HAS_EDGE_PROPERTY"},
		},
	}
}

// RDFSModel is a minimal RDF-Schema model: classes, properties with domain
// and range, and subclass links. It supports generalizations natively
// (rdfs:subClassOf), so its Eliminate phase keeps them.
func RDFSModel() Model {
	return Model{
		Name: "rdfs",
		Constructs: []ConstructSpec{
			{"Class", "SM_Node"},
			{"RdfProperty", "SM_Attribute"},
			{"ObjectProperty", "SM_Edge"},
			{"SubClassOf", "SM_Generalization"},
			{"ClassName", "SM_Type"},
		},
	}
}

// CSVModel serializes graphs as plain CSV files: one file per node type and
// per edge type, no constraints (Section 2.2 lists CSV among the non-graph
// serializations in use).
func CSVModel() Model {
	return Model{
		Name: "csv",
		Constructs: []ConstructSpec{
			{"File", "SM_Type"},
			{"Column", "SM_Attribute"},
		},
	}
}
