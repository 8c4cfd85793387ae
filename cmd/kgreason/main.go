// Command kgreason materializes intensional components over a data instance
// (Algorithm 2, Section 6), reporting the load / reason / flush phase
// breakdown the paper discusses.
//
// Usage:
//
//	kgreason -in kg.json -component control,ownership -out enriched.json
//	kgreason -in kg.json -sigma my-rules.metalog
//
// Built-in components: ownership, control, family. (The close-links
// component runs over the simple shareholding projection and is exposed
// through the library and Example_closeLinks instead.)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/finance"
	"repro/internal/instance"
	"repro/internal/metalog"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/pg"
	"repro/internal/plan"
	"repro/internal/supermodel"
	"repro/internal/vadalog"
)

var builtins = map[string]func() string{
	"ownership": finance.OwnershipProgram,
	"control":   finance.ControlProgram,
	"family":    finance.FamilyProgram,
}

func main() {
	in := flag.String("in", "", "Company KG data instance (JSON or snapshot)")
	out := flag.String("out", "", "write the enriched graph to this file (default stdout)")
	components := flag.String("component", "ownership,control", "comma-separated built-in components to run, in order")
	sigma := flag.String("sigma", "", "additional MetaLog program file to run last")
	workers := flag.Int("workers", runtime.NumCPU(), "goroutines for the reasoning fixpoint (1 = sequential)")
	explain := flag.Bool("explain", false, "print each component's cost-based plan analysis to stderr before reasoning (execution is unchanged)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound per reasoning run (0 = none)")
	traceFile := flag.String("trace", "", "write the JSON run trace (one section per component run) to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
	ff := cli.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()

	onFault, done, err := ff.Apply(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if done {
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "kgreason: need -in <kg.json>")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		if err := obs.ServeDebug(*pprofAddr); err != nil {
			fatal(err)
		}
	}
	// Opening is the one step that does I/O, so it is what -retries retries;
	// standard input cannot be read twice.
	retry := ff.RetryPolicy()
	if *in == "-" {
		retry.MaxAttempts = 1
	}
	var input *pg.Frozen
	if err := retry.Do("kgreason/open", func() error {
		var oerr error
		input, oerr = cli.OpenGraph(*in)
		return oerr
	}); err != nil {
		fatal(err)
	}
	// Each component's derivations are staged in an overlay over the input,
	// which the next component reads and the output is written from.
	stage := overlay.New(input)

	var comps []instance.Component
	add := func(name, src string) {
		prog, err := metalog.Parse(src)
		if err != nil {
			fatal(fmt.Errorf("intensional component %q: %w", name, err))
		}
		comps = append(comps, instance.Component{Name: name, Sigma: prog})
	}
	for _, name := range strings.Split(*components, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		gen, ok := builtins[name]
		if !ok {
			fatal(fmt.Errorf("unknown component %q (have ownership, control, family)", name))
		}
		add(name, gen())
	}
	if *sigma != "" {
		src, err := os.ReadFile(*sigma)
		if err != nil {
			fatal(err)
		}
		add(*sigma, string(src))
	}

	if *explain {
		explainComponents(input, comps)
	}

	opts := vadalog.Options{Workers: *workers, Timeout: *timeout, OnFault: onFault}
	var trace *obs.Trace
	if *traceFile != "" {
		trace = obs.NewTrace()
		opts.Trace = trace
	}
	steps, err := instance.MaterializeStaged(supermodel.CompanyKG(), stage, comps, 1, opts)
	if trace != nil {
		// Written before the error check so interrupted materializations
		// still leave their partial trace behind.
		if werr := writeTrace(trace, *traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "kgreason:", werr)
		}
	}
	salvaged := false
	if err != nil {
		// Under -on-fault best-effort a mid-reasoning failure still returns
		// the salvaged steps; report them and write the enriched graph, but
		// exit nonzero so scripts see the run was incomplete.
		var pe *vadalog.PartialError
		if errors.As(err, &pe) && steps != nil {
			fmt.Fprintf(os.Stderr, "kgreason: %v — writing the salvaged prefix\n", err)
			salvaged = true
		} else {
			fatal(err)
		}
	}
	for i, step := range steps {
		fmt.Fprintf(os.Stderr, "kgreason: %-12s load=%-12v reason=%-12v flush=%-12v derived: %d entities, %d edges, %d properties\n",
			comps[i].Name, step.LoadDuration, step.ReasonDuration, step.FlushDuration,
			step.NewEntities, step.NewEdges, step.UpdatedProps)
	}

	if *out == "" {
		err = pg.WriteJSON(os.Stdout, stage)
	} else {
		err = writeOutput(*out, stage)
	}
	if err != nil {
		fatal(err)
	}
	if salvaged {
		os.Exit(1)
	}
}

// writeOutput writes the enriched graph to path through a temporary file in
// the same directory, synced and renamed over path once the whole graph is
// written: a write that fails (a full disk, an injected pg/write-json fault)
// leaves an earlier file at path as it was, and no temporary file behind.
func writeOutput(path string, g pg.View) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp creates 0600; the output is for others to read.
	if err = tmp.Chmod(0o644); err == nil {
		if err = pg.WriteJSON(tmp, g); err == nil {
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // already failing
	}
	return err
}

// explainComponents prints each component's cost-based plan analysis —
// per-rule join orders and cardinality estimates against the data instance's
// statistics catalog (DESIGN.md §15). Analysis only: materialization always
// executes the programs as written.
func explainComponents(frozen *pg.Frozen, comps []instance.Component) {
	cat := metalog.FromGraph(frozen)
	st := metalog.ComputePlanStats(frozen, cat)
	for _, c := range comps {
		tr, err := metalog.Translate(c.Sigma, cat.Clone())
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgreason: explain %s: %v\n", c.Name, err)
			continue
		}
		_, pl, err := plan.Compile(tr.Program, st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgreason: explain %s: %v\n", c.Name, err)
			continue
		}
		out, err := json.MarshalIndent(pl, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "kgreason: explain %s: %v\n", c.Name, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "kgreason: plan for %s:\n%s\n", c.Name, out)
	}
}

func writeTrace(trace *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteJSONTimings(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kgreason:", err)
	os.Exit(1)
}
