package vadalog

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/value"
)

// ExprKind discriminates expression nodes.
type ExprKind uint8

// Expression node kinds.
const (
	ExprConst ExprKind = iota
	ExprVar
	ExprBinary
	ExprUnary
	ExprCall
	ExprAggregate
)

// Expr is a MetaLog/Vadalog expression: a condition or the right-hand side of
// an assignment (Section 4, "expressions" and "conditions"). Aggregate nodes
// may only occur as the entire right-hand side of an assignment literal; the
// parser enforces this.
type Expr struct {
	Kind ExprKind

	Val  value.Value // ExprConst
	Name string      // ExprVar: variable; ExprCall: function name
	Op   string      // ExprBinary / ExprUnary operator

	Left  *Expr
	Right *Expr
	Args  []*Expr // ExprCall arguments

	Agg *Aggregate // ExprAggregate
}

// Aggregate is an aggregation term. With contributor variables
// (e.g. sum(W, <Z>)) it is evaluated monotonically during the fixpoint, as in
// the control rule of Example 4.1: each distinct binding of the contributor
// tuple contributes exactly once per group. Without contributors it is a
// stratified aggregate evaluated after the defining stratum is saturated.
type Aggregate struct {
	Op           string // sum, count, min, max, avg, prod, pack
	Arg          *Expr  // aggregated expression; nil for count()
	Arg2         *Expr  // second argument (pack(name, value))
	Contributors []string
}

// Monotonic reports whether the aggregate has contributor variables and is
// therefore evaluated inside the fixpoint.
func (a *Aggregate) Monotonic() bool { return len(a.Contributors) > 0 }

func (e *Expr) String() string {
	switch e.Kind {
	case ExprConst:
		return e.Val.Literal()
	case ExprVar:
		return e.Name
	case ExprBinary:
		return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
	case ExprUnary:
		return e.Op + e.Left.String()
	case ExprCall:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return e.Name + "(" + strings.Join(parts, ",") + ")"
	case ExprAggregate:
		var inner []string
		if e.Agg.Arg != nil {
			inner = append(inner, e.Agg.Arg.String())
		}
		if e.Agg.Arg2 != nil {
			inner = append(inner, e.Agg.Arg2.String())
		}
		if len(e.Agg.Contributors) > 0 {
			inner = append(inner, "<"+strings.Join(e.Agg.Contributors, ",")+">")
		}
		return e.Agg.Op + "(" + strings.Join(inner, ", ") + ")"
	default:
		return "<bad expr>"
	}
}

// assignTarget reports whether the expression has the form Var = RHS, and if
// so returns the variable name.
func (e *Expr) assignTarget() (string, bool) {
	if e.Kind == ExprBinary && e.Op == "=" && e.Left.Kind == ExprVar {
		return e.Left.Name, true
	}
	return "", false
}

// vars collects the variable names referenced by the expression (including
// aggregate arguments and contributors) into set.
func (e *Expr) vars(set map[string]bool) {
	if e == nil {
		return
	}
	switch e.Kind {
	case ExprVar:
		set[e.Name] = true
	case ExprBinary:
		e.Left.vars(set)
		e.Right.vars(set)
	case ExprUnary:
		e.Left.vars(set)
	case ExprCall:
		for _, a := range e.Args {
			a.vars(set)
		}
	case ExprAggregate:
		e.Agg.Arg.vars(set)
		e.Agg.Arg2.vars(set)
		for _, c := range e.Agg.Contributors {
			set[c] = true
		}
	}
}

// findAggregate returns the aggregate node if the expression is exactly an
// assignment Var = agg(...), else nil.
func (e *Expr) findAggregate() *Aggregate {
	if _, ok := e.assignTarget(); ok && e.Right.Kind == ExprAggregate {
		return e.Right.Agg
	}
	return nil
}

// Env resolves variable names during expression evaluation. The engine
// provides the one implementation, over a rule's variable slots.
type Env interface {
	Lookup(name string) (value.Value, bool)
}

// Eval evaluates the expression under the binding. Aggregate nodes are an
// error here — the engine evaluates them through dedicated accumulator paths.
func (e *Expr) Eval(b Env) (value.Value, error) {
	switch e.Kind {
	case ExprConst:
		return e.Val, nil
	case ExprVar:
		v, ok := b.Lookup(e.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("vadalog: variable %s unbound in expression", e.Name)
		}
		return v, nil
	case ExprUnary:
		v, err := e.Left.Eval(b)
		if err != nil {
			return value.Value{}, err
		}
		switch e.Op {
		case "-":
			switch v.K {
			case value.Int:
				return value.IntV(-v.I), nil
			case value.Float:
				return value.FloatV(-v.F), nil
			}
			return value.Value{}, fmt.Errorf("vadalog: cannot negate %s", v.K)
		case "not":
			return value.BoolV(!v.Truthy()), nil
		}
		return value.Value{}, fmt.Errorf("vadalog: unknown unary operator %q", e.Op)
	case ExprBinary:
		return e.evalBinary(b)
	case ExprCall:
		return e.evalCall(b)
	case ExprAggregate:
		return value.Value{}, fmt.Errorf("vadalog: aggregate %s evaluated outside assignment context", e.Agg.Op)
	default:
		return value.Value{}, fmt.Errorf("vadalog: invalid expression")
	}
}

func (e *Expr) evalBinary(b Env) (value.Value, error) {
	// Short-circuit boolean operators.
	if e.Op == "and" || e.Op == "or" {
		l, err := e.Left.Eval(b)
		if err != nil {
			return value.Value{}, err
		}
		if e.Op == "and" && !l.Truthy() {
			return value.BoolV(false), nil
		}
		if e.Op == "or" && l.Truthy() {
			return value.BoolV(true), nil
		}
		r, err := e.Right.Eval(b)
		if err != nil {
			return value.Value{}, err
		}
		return value.BoolV(r.Truthy()), nil
	}
	l, err := e.Left.Eval(b)
	if err != nil {
		return value.Value{}, err
	}
	r, err := e.Right.Eval(b)
	if err != nil {
		return value.Value{}, err
	}
	switch e.Op {
	case "+":
		return value.Add(l, r)
	case "-":
		return value.Sub(l, r)
	case "*":
		return value.Mul(l, r)
	case "/":
		return value.Div(l, r)
	case "=", "==":
		return value.BoolV(value.Equal(l, r)), nil
	case "!=":
		return value.BoolV(!value.Equal(l, r)), nil
	case "<", "<=", ">", ">=":
		// Ordered comparisons over labeled nulls or Skolem identifiers (in
		// particular the "missing property" marker) are false, so conditions
		// never select facts whose operand is absent. Mixed non-numeric
		// kinds are likewise incomparable.
		if !comparable(l, r) {
			return value.BoolV(false), nil
		}
		c := value.Compare(l, r)
		switch e.Op {
		case "<":
			return value.BoolV(c < 0), nil
		case "<=":
			return value.BoolV(c <= 0), nil
		case ">":
			return value.BoolV(c > 0), nil
		default:
			return value.BoolV(c >= 0), nil
		}
	default:
		return value.Value{}, fmt.Errorf("vadalog: unknown binary operator %q", e.Op)
	}
}

// comparable reports whether an ordered comparison between the two values is
// meaningful: both numeric, or both of the same constant kind.
func comparable(l, r value.Value) bool {
	if l.K == value.Null || l.K == value.ID || r.K == value.Null || r.K == value.ID {
		return false
	}
	if _, ok := l.AsFloat(); ok {
		_, ok2 := r.AsFloat()
		return ok2
	}
	return l.K == r.K
}

func (e *Expr) evalCall(b Env) (value.Value, error) {
	args := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(b)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	fn, ok := builtinFuncs[e.Name]
	if !ok {
		return value.Value{}, fmt.Errorf("vadalog: unknown function %q", e.Name)
	}
	return fn(args)
}

// builtinFuncs is the expression function library (Section 4: "a generic
// function, which may be tuple-level — an algebraic operation, a string
// operation, and so on").
var builtinFuncs = map[string]func([]value.Value) (value.Value, error){
	"abs": func(a []value.Value) (value.Value, error) {
		if err := arity("abs", a, 1); err != nil {
			return value.Value{}, err
		}
		switch a[0].K {
		case value.Int:
			if a[0].I < 0 {
				return value.IntV(-a[0].I), nil
			}
			return a[0], nil
		case value.Float:
			return value.FloatV(math.Abs(a[0].F)), nil
		}
		return value.Value{}, fmt.Errorf("vadalog: abs: non-numeric argument %s", a[0].K)
	},
	"sqrt":  numeric1("sqrt", math.Sqrt),
	"ln":    numeric1("ln", math.Log),
	"exp":   numeric1("exp", math.Exp),
	"floor": numeric1("floor", math.Floor),
	"ceil":  numeric1("ceil", math.Ceil),
	"min2": func(a []value.Value) (value.Value, error) {
		if err := arity("min2", a, 2); err != nil {
			return value.Value{}, err
		}
		if value.Compare(a[0], a[1]) <= 0 {
			return a[0], nil
		}
		return a[1], nil
	},
	"max2": func(a []value.Value) (value.Value, error) {
		if err := arity("max2", a, 2); err != nil {
			return value.Value{}, err
		}
		if value.Compare(a[0], a[1]) >= 0 {
			return a[0], nil
		}
		return a[1], nil
	},
	"concat": func(a []value.Value) (value.Value, error) {
		var b strings.Builder
		for _, v := range a {
			b.WriteString(v.String())
		}
		return value.Str(b.String()), nil
	},
	"lower": string1("lower", strings.ToLower),
	"upper": string1("upper", strings.ToUpper),
	"trim":  string1("trim", strings.TrimSpace),
	"strlen": func(a []value.Value) (value.Value, error) {
		if err := arity("strlen", a, 1); err != nil {
			return value.Value{}, err
		}
		return value.IntV(int64(len(a[0].String()))), nil
	},
	"contains": func(a []value.Value) (value.Value, error) {
		if err := arity("contains", a, 2); err != nil {
			return value.Value{}, err
		}
		return value.BoolV(strings.Contains(a[0].String(), a[1].String())), nil
	},
	"starts_with": func(a []value.Value) (value.Value, error) {
		if err := arity("starts_with", a, 2); err != nil {
			return value.Value{}, err
		}
		return value.BoolV(strings.HasPrefix(a[0].String(), a[1].String())), nil
	},
	"substring_before": func(a []value.Value) (value.Value, error) {
		if err := arity("substring_before", a, 2); err != nil {
			return value.Value{}, err
		}
		s, sep := a[0].String(), a[1].String()
		if i := strings.Index(s, sep); i >= 0 {
			return value.Str(s[:i]), nil
		}
		return value.Str(s), nil
	},
	"substring_after": func(a []value.Value) (value.Value, error) {
		if err := arity("substring_after", a, 2); err != nil {
			return value.Value{}, err
		}
		s, sep := a[0].String(), a[1].String()
		if i := strings.Index(s, sep); i >= 0 {
			return value.Str(s[i+len(sep):]), nil
		}
		return value.Str(""), nil
	},
	"to_string": func(a []value.Value) (value.Value, error) {
		if err := arity("to_string", a, 1); err != nil {
			return value.Value{}, err
		}
		return value.Str(a[0].String()), nil
	},
	"to_float": func(a []value.Value) (value.Value, error) {
		if err := arity("to_float", a, 1); err != nil {
			return value.Value{}, err
		}
		if f, ok := a[0].AsFloat(); ok {
			return value.FloatV(f), nil
		}
		if v, err := value.ParseLiteral(a[0].String()); err == nil {
			if f, ok := v.AsFloat(); ok {
				return value.FloatV(f), nil
			}
		}
		return value.Value{}, fmt.Errorf("vadalog: to_float: cannot convert %s", a[0])
	},
	"to_int": func(a []value.Value) (value.Value, error) {
		if err := arity("to_int", a, 1); err != nil {
			return value.Value{}, err
		}
		if i, ok := a[0].AsInt(); ok {
			return value.IntV(i), nil
		}
		return value.Value{}, fmt.Errorf("vadalog: to_int: cannot convert %s", a[0])
	},
	// sk applies a linker Skolem functor by name: sk("f", X, Y) builds the
	// identifier #f(x,y). The functor name must be the first argument.
	"sk": func(a []value.Value) (value.Value, error) {
		if len(a) < 1 || a[0].K != value.String {
			return value.Value{}, fmt.Errorf("vadalog: sk: first argument must be the functor name string")
		}
		return value.Skolem(a[0].S, a[1:]...), nil
	},
}

func arity(name string, args []value.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("vadalog: %s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func numeric1(name string, f func(float64) float64) func([]value.Value) (value.Value, error) {
	return func(a []value.Value) (value.Value, error) {
		if err := arity(name, a, 1); err != nil {
			return value.Value{}, err
		}
		x, ok := a[0].AsFloat()
		if !ok {
			return value.Value{}, fmt.Errorf("vadalog: %s: non-numeric argument %s", name, a[0].K)
		}
		return value.FloatV(f(x)), nil
	}
}

func string1(name string, f func(string) string) func([]value.Value) (value.Value, error) {
	return func(a []value.Value) (value.Value, error) {
		if err := arity(name, a, 1); err != nil {
			return value.Value{}, err
		}
		return value.Str(f(a[0].String())), nil
	}
}
