// Package cli holds what the command-line tools share: the flag plumbing, so
// the robustness surface (retries, fault policy, chaos reproduction) is
// spelled identically across kgreason, kgserve, and vadalog, and the one way
// a graph file is told apart and opened (OpenGraph, IsSnapshot), so every
// tool and the server read what kggen and kgsnap write.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/vadalog"
)

// FaultFlags carries the robustness flags shared by the CLIs:
//
//	-retries N    attempts for transiently failing data loads (1 = no retry)
//	-on-fault P   fail-fast (default) or best-effort stratum salvage
//	-chaos SPEC   arm fault-injection sites for reproduction runs
//
// -chaos is hidden from -help: it is a developer tool for reproducing chaos
// findings, taking comma-separated "site[:mode[:after]]" specs (see
// fault.ParseSpec); the value "list" prints the sites this binary registers
// and exits.
type FaultFlags struct {
	// Retries is the -retries value; 1 (the default) disables retrying.
	Retries int

	onFault string
	chaos   string
}

// RegisterFaultFlags declares the shared robustness flags on fs.
func RegisterFaultFlags(fs *flag.FlagSet) *FaultFlags {
	ff := &FaultFlags{}
	fs.IntVar(&ff.Retries, "retries", 1, "attempts for transiently failing data loads (1 = no retry)")
	fs.StringVar(&ff.onFault, "on-fault", "fail-fast", "reasoning fault policy: fail-fast or best-effort")
	fs.StringVar(&ff.chaos, "chaos", "", "")
	HideFlags(fs, "chaos")
	return ff
}

// HideFlags rewrites fs.Usage to omit the named flags from -help, keeping
// developer-only flags out of the user surface while still parsing them.
func HideFlags(fs *flag.FlagSet, names ...string) {
	hidden := map[string]bool{}
	for _, n := range names {
		hidden[n] = true
	}
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage of %s:\n", fs.Name())
		fs.VisitAll(func(f *flag.Flag) {
			if hidden[f.Name] {
				return
			}
			arg, usage := flag.UnquoteUsage(f)
			if arg != "" {
				fmt.Fprintf(w, "  -%s %s\n", f.Name, arg)
			} else {
				fmt.Fprintf(w, "  -%s\n", f.Name)
			}
			fmt.Fprintf(w, "    \t%s", usage)
			if f.DefValue != "" && f.DefValue != "false" {
				fmt.Fprintf(w, " (default %v)", f.DefValue)
			}
			fmt.Fprintln(w)
		})
	}
}

// Apply resolves the flags after fs.Parse: it arms any -chaos spec and
// parses -on-fault into the engine's fault policy. When -chaos is "list" it
// writes the fault sites this binary registers to w, one per line, and
// returns done=true — the caller should exit without running.
func (ff *FaultFlags) Apply(w io.Writer) (policy vadalog.FaultPolicy, done bool, err error) {
	if w == nil {
		w = os.Stdout
	}
	if ff.chaos == "list" {
		for _, s := range fault.Sites() {
			fmt.Fprintln(w, s)
		}
		return vadalog.FailFast, true, nil
	}
	if ff.chaos != "" {
		if err := fault.ArmSpecs(ff.chaos); err != nil {
			return vadalog.FailFast, false, err
		}
	}
	policy, err = vadalog.ParseFaultPolicy(ff.onFault)
	return policy, false, err
}

// RetryPolicy builds the load-retry policy for the -retries value, with the
// default backoff schedule.
func (ff *FaultFlags) RetryPolicy() fault.RetryPolicy {
	return fault.RetryPolicy{MaxAttempts: ff.Retries}
}
