// Command vadalog runs Vadalog programs: the standalone face of the
// reasoning engine the framework embeds. Programs declare their inputs with
// @input("pred", "csv", "file.csv") annotations and mark results with
// @output; results print to stdout or export as CSV.
//
// Usage:
//
//	vadalog -in control.vlog -data ./data
//	vadalog -in control.vlog -data ./data -export ./out
//	echo 'p(1). q(X) :- p(X). @output("q").' | vadalog
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/vadalog"
)

func main() {
	in := flag.String("in", "", "Vadalog program (default: stdin)")
	data := flag.String("data", ".", "base directory for @input csv paths")
	export := flag.String("export", "", "export @output relations as CSV into this directory")
	analyze := flag.Bool("analyze", false, "print static analysis before running")
	maxFacts := flag.Int("max-facts", 0, "derived-fact safety valve (0 = unlimited)")
	explain := flag.Bool("explain", false, "record provenance and print a proof tree for each @output fact (best with small results)")
	explainDepth := flag.Int("explain-depth", 0, "proof tree depth cap (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the run (0 = none); an exceeded bound exits with the partial stats reported")
	traceFile := flag.String("trace", "", "write the JSON run trace (per-rule counters, round deltas) to this file")
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
	if *pprofAddr != "" {
		if err := obs.ServeDebug(*pprofAddr); err != nil {
			fatal(err)
		}
	}

	var src []byte
	if *in != "" {
		src, err = os.ReadFile(*in)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	prog, err := vadalog.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	if *analyze {
		an, err := vadalog.Analyze(prog)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vadalog: %d rules, %d strata, warded=%v, piecewise-linear=%v\n",
			len(prog.Rules), len(an.Strata), an.Warded, an.PiecewiseLinear)
	}

	opts := vadalog.Options{MaxFacts: *maxFacts, Provenance: *explain, Timeout: *timeout, OnFault: onFault}
	var trace *obs.Trace
	if *traceFile != "" {
		trace = obs.NewTrace()
		opts.Trace = trace
	}
	bindings := vadalog.Bindings{BaseDir: *data, Retry: ff.RetryPolicy()}
	res, outputs, err := vadalog.RunWithBindings(prog, bindings, opts)
	if trace != nil {
		// The trace captures whatever ran, including interrupted runs.
		if werr := writeTrace(trace, *traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "vadalog:", werr)
		}
	}
	salvaged := false
	if err != nil {
		// A best-effort *PartialError still carries outputs: the completed
		// strata are a sound (if incomplete) prefix, so export them and exit
		// nonzero. Interruptions report the partial stats and stop.
		var pe *vadalog.PartialError
		if errors.As(err, &pe) && res != nil {
			fmt.Fprintf(os.Stderr, "vadalog: %v — exporting the salvaged prefix\n", err)
			salvaged = true
		} else if errors.Is(err, vadalog.ErrTimeout) || errors.Is(err, vadalog.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "vadalog: %v (partial run recorded)\n", err)
			os.Exit(1)
		} else {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "vadalog: derived %d facts in %v (%d fixpoint rounds)\n",
		res.Stats.FactsDerived, res.Stats.Duration, res.Stats.Rounds)

	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			fatal(err)
		}
		if err := vadalog.ExportOutputs(prog, res.DB, *export); err != nil {
			fatal(err)
		}
	} else {
		for _, pred := range prog.Outputs() {
			for _, f := range outputs[pred] {
				if *explain {
					proof, err := res.Explain(pred, f, *explainDepth)
					if err != nil {
						fatal(err)
					}
					fmt.Print(proof.String())
					continue
				}
				fmt.Printf("%s%s\n", pred, f)
			}
		}
	}
	if salvaged {
		os.Exit(1)
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
	fmt.Fprintln(os.Stderr, "vadalog:", err)
	os.Exit(1)
}
