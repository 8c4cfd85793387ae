package pg

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/value"
)

// Injection sites of the serialization layer: one per reader/writer entry
// point, probed before any bytes move so an injected failure models the
// I/O error surfacing from the underlying stream.
var (
	siteReadJSON     = fault.Site("pg/read-json")
	siteWriteJSON    = fault.Site("pg/write-json")
	siteReadCSV      = fault.Site("pg/read-csv")
	siteWriteNodeCSV = fault.Site("pg/write-node-csv")
	siteWriteEdgeCSV = fault.Site("pg/write-edge-csv")
)

// The paper lists "plain CSV files" among the non-graph-like models frequently
// used to serialize graphs (Section 2.2). This file implements CSV and JSON
// serialization of property graphs, used by the CSV target model and by the
// command-line tools to exchange instances.

// jsonValue is the serialized form of a value.Value.
type jsonValue struct {
	Kind  string  `json:"kind"`
	Str   string  `json:"str,omitempty"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	Bool  bool    `json:"bool,omitempty"`
}

func toJSONValue(v value.Value) jsonValue {
	if v.K == value.Float && (math.IsInf(v.F, 0) || math.IsNaN(v.F)) { // JSON has no number for it
		return jsonValue{Kind: "float", Str: strconv.FormatFloat(v.F, 'g', -1, 64)} // "+Inf", "-Inf" or "NaN"
	}
	return jsonValue{Kind: v.K.String(), Str: v.S, Int: v.I, Float: v.F, Bool: v.B}
}

func fromJSONValue(j jsonValue) (value.Value, error) {
	switch j.Kind {
	case "string":
		return value.Str(j.Str), nil
	case "int":
		return value.IntV(j.Int), nil
	case "float":
		switch j.Str {
		case "":
			return value.FloatV(j.Float), nil
		case "+Inf", "-Inf", "NaN":
			f, _ := strconv.ParseFloat(j.Str, 64)
			return value.FloatV(f), nil
		}
		return value.Value{}, fmt.Errorf("pg: float %q is none of +Inf, -Inf and NaN", j.Str)
	case "bool":
		return value.BoolV(j.Bool), nil
	case "null":
		return value.NullV(j.Int), nil
	case "id":
		return value.IDV(j.Str), nil
	default:
		return value.Value{}, fmt.Errorf("pg: unknown value kind %q", j.Kind)
	}
}

// JSONValue is the exported name of the kind-tagged wire form, so other
// layers (the serving layer's /mutate payload) reuse the exact value encoding
// of the graph files instead of inventing a second one.
type JSONValue = jsonValue

// EncodeValue returns the wire form of a property value.
func EncodeValue(v value.Value) JSONValue { return toJSONValue(v) }

// DecodeValue parses the wire form of a property value.
func DecodeValue(j JSONValue) (value.Value, error) { return fromJSONValue(j) }

type jsonNode struct {
	ID     int64                `json:"id"`
	Labels []string             `json:"labels,omitempty"`
	Props  map[string]jsonValue `json:"props,omitempty"`
}

type jsonEdge struct {
	ID    int64                `json:"id"`
	Label string               `json:"label"`
	From  int64                `json:"from"`
	To    int64                `json:"to"`
	Props map[string]jsonValue `json:"props,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

// WriteJSON serializes any view as a single JSON document, walking its
// scans: a graph, a frozen snapshot and an overlay holding the same
// constructs write the same bytes. It streams, encoding one construct at a
// time at its depth in the document, so it holds one row's property map and
// never the document; the bytes are those of encoding the whole jsonGraph
// with a two-space indent. An error can leave a partial document in w.
func WriteJSON(w io.Writer, v View) error {
	if err := fault.Hit(siteWriteJSON); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var row bytes.Buffer
	enc := json.NewEncoder(&row)
	enc.SetIndent("    ", "  ") // an array element sits at depth 2
	props := map[string]jsonValue{}
	fill := func(l PropList) map[string]jsonValue {
		clear(props)
		for _, p := range l {
			props[p.Key] = toJSONValue(p.Val)
		}
		return props
	}
	var err error
	n := 0 // elements written to the open array
	element := func(x any) bool {
		row.Reset()
		if err = enc.Encode(x); err != nil {
			return false
		}
		if n == 0 {
			bw.WriteString("[\n    ")
		} else {
			bw.WriteString(",\n    ")
		}
		n++
		_, err = bw.Write(row.Bytes()[:row.Len()-1]) // Encode ends the element with a newline
		return err == nil
	}
	closeArray := func() {
		if n == 0 {
			bw.WriteString("null") // a nil slice
		} else {
			bw.WriteString("\n  ]")
		}
		n = 0
	}
	bw.WriteString("{\n  \"nodes\": ")
	v.ScanNodes(func(r *NodeRow) bool {
		return element(jsonNode{ID: int64(r.ID), Labels: r.Labels, Props: fill(r.Props)})
	})
	if err != nil {
		return err
	}
	closeArray()
	bw.WriteString(",\n  \"edges\": ")
	v.ScanEdges(func(r *EdgeRow) bool {
		return element(jsonEdge{ID: int64(r.ID), Label: r.Label, From: int64(r.From), To: int64(r.To), Props: fill(r.Props)})
	})
	if err != nil {
		return err
	}
	closeArray()
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// ReadJSON parses a graph previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	if err := fault.Hit(siteReadJSON); err != nil {
		return nil, err
	}
	var doc jsonGraph
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("pg: decoding JSON graph: %w", err)
	}
	g := New()
	for _, jn := range doc.Nodes {
		props := Props{}
		for k, jv := range jn.Props {
			v, err := fromJSONValue(jv)
			if err != nil {
				return nil, err
			}
			props[k] = v
		}
		if _, err := g.AddNodeWithID(OID(jn.ID), jn.Labels, props); err != nil {
			return nil, err
		}
	}
	for _, je := range doc.Edges {
		props := Props{}
		for k, jv := range je.Props {
			v, err := fromJSONValue(jv)
			if err != nil {
				return nil, err
			}
			props[k] = v
		}
		if _, err := g.AddEdgeWithID(OID(je.ID), OID(je.From), OID(je.To), je.Label, props); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// WriteNodeCSV writes all nodes as CSV with header
// id,labels,<prop1>,<prop2>,... where the property columns are the union of
// property names across nodes, sorted. Missing properties serialize as "".
func (g *Graph) WriteNodeCSV(w io.Writer) error {
	if err := fault.Hit(siteWriteNodeCSV); err != nil {
		return err
	}
	nodes := g.Nodes()
	cols := propColumns(nodesProps(nodes))
	cw := csv.NewWriter(w)
	header := append([]string{"id", "labels"}, cols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, n := range nodes {
		rec := make([]string, 0, len(header))
		rec = append(rec, strconv.FormatInt(int64(n.ID), 10), strings.Join(n.Labels, ";"))
		for _, c := range cols {
			rec = append(rec, csvCell(n.Props, c))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEdgeCSV writes all edges as CSV with header
// id,label,from,to,<prop1>,... analogous to WriteNodeCSV.
func (g *Graph) WriteEdgeCSV(w io.Writer) error {
	if err := fault.Hit(siteWriteEdgeCSV); err != nil {
		return err
	}
	edges := g.Edges()
	props := make([]Props, len(edges))
	for i, e := range edges {
		props[i] = e.Props
	}
	cols := propColumns(props)
	cw := csv.NewWriter(w)
	header := append([]string{"id", "label", "from", "to"}, cols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range edges {
		rec := make([]string, 0, len(header))
		rec = append(rec,
			strconv.FormatInt(int64(e.ID), 10), e.Label,
			strconv.FormatInt(int64(e.From), 10), strconv.FormatInt(int64(e.To), 10))
		for _, c := range cols {
			rec = append(rec, csvCell(e.Props, c))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reconstructs a graph from node and edge CSV streams produced by
// WriteNodeCSV and WriteEdgeCSV. Property values are re-parsed as literals;
// cells holding plain text that is not a valid literal load as strings.
func ReadCSV(nodes, edges io.Reader) (*Graph, error) {
	if err := fault.Hit(siteReadCSV); err != nil {
		return nil, err
	}
	g := New()
	nr := csv.NewReader(nodes)
	nrecs, err := nr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("pg: reading node CSV: %w", err)
	}
	if len(nrecs) == 0 {
		return nil, fmt.Errorf("pg: node CSV has no header")
	}
	nh := nrecs[0]
	if len(nh) < 2 || nh[0] != "id" || nh[1] != "labels" {
		return nil, fmt.Errorf("pg: node CSV header must start with id,labels")
	}
	for _, rec := range nrecs[1:] {
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pg: bad node id %q: %w", rec[0], err)
		}
		var labels []string
		if rec[1] != "" {
			labels = strings.Split(rec[1], ";")
		}
		props := Props{}
		for i := 2; i < len(rec) && i < len(nh); i++ {
			if rec[i] == "" {
				continue
			}
			props[nh[i]] = parseCSVCell(rec[i])
		}
		if _, err := g.AddNodeWithID(OID(id), labels, props); err != nil {
			return nil, err
		}
	}

	er := csv.NewReader(edges)
	erecs, err := er.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("pg: reading edge CSV: %w", err)
	}
	if len(erecs) == 0 {
		return nil, fmt.Errorf("pg: edge CSV has no header")
	}
	eh := erecs[0]
	if len(eh) < 4 || eh[0] != "id" || eh[1] != "label" || eh[2] != "from" || eh[3] != "to" {
		return nil, fmt.Errorf("pg: edge CSV header must start with id,label,from,to")
	}
	for _, rec := range erecs[1:] {
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pg: bad edge id %q: %w", rec[0], err)
		}
		from, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pg: bad edge source %q: %w", rec[2], err)
		}
		to, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pg: bad edge target %q: %w", rec[3], err)
		}
		props := Props{}
		for i := 4; i < len(rec) && i < len(eh); i++ {
			if rec[i] == "" {
				continue
			}
			props[eh[i]] = parseCSVCell(rec[i])
		}
		if _, err := g.AddEdgeWithID(OID(id), OID(from), OID(to), rec[1], props); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func nodesProps(nodes []*Node) []Props {
	out := make([]Props, len(nodes))
	for i, n := range nodes {
		out[i] = n.Props
	}
	return out
}

func propColumns(ps []Props) []string {
	seen := map[string]bool{}
	for _, p := range ps {
		for k := range p {
			seen[k] = true
		}
	}
	cols := make([]string, 0, len(seen))
	for k := range seen {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	return cols
}

// csvCell writes a property as the literal parseCSVCell reads back with the
// same kind; an absent one is the empty cell.
func csvCell(p Props, col string) string {
	if v, ok := p[col]; ok {
		return v.Literal()
	}
	return ""
}

func parseCSVCell(s string) value.Value {
	if v, err := value.ParseLiteral(s); err == nil {
		return v
	}
	return value.Str(s)
}
