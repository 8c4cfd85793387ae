package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/vadalog"
)

var siteCLITest = fault.Site("cli/test")

func parse(t *testing.T, args ...string) *FaultFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ff := RegisterFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ff
}

func TestFaultFlagsDefaults(t *testing.T) {
	ff := parse(t)
	policy, done, err := ff.Apply(nil)
	if err != nil || done {
		t.Fatalf("Apply() = %v, done=%v", err, done)
	}
	if policy != vadalog.FailFast {
		t.Errorf("default policy = %v, want fail-fast", policy)
	}
	if ff.Retries != 1 || ff.RetryPolicy().MaxAttempts != 1 {
		t.Errorf("default retries = %d, want 1", ff.Retries)
	}
}

func TestFaultFlagsBestEffortAndRetries(t *testing.T) {
	ff := parse(t, "-on-fault", "best-effort", "-retries", "4")
	policy, done, err := ff.Apply(nil)
	if err != nil || done {
		t.Fatalf("Apply() = %v, done=%v", err, done)
	}
	if policy != vadalog.BestEffort {
		t.Errorf("policy = %v, want best-effort", policy)
	}
	if ff.RetryPolicy().MaxAttempts != 4 {
		t.Errorf("retry attempts = %d, want 4", ff.RetryPolicy().MaxAttempts)
	}
}

func TestFaultFlagsBadPolicy(t *testing.T) {
	ff := parse(t)
	ff.onFault = "never-fail"
	if _, _, err := ff.Apply(nil); err == nil {
		t.Error("unknown -on-fault value must error")
	}
}

func TestFaultFlagsChaosList(t *testing.T) {
	ff := parse(t, "-chaos", "list")
	var buf bytes.Buffer
	_, done, err := ff.Apply(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("-chaos list must signal the caller to exit")
	}
	if !strings.Contains(buf.String(), "cli/test") {
		t.Errorf("site listing missing registered site:\n%s", buf.String())
	}
}

func TestFaultFlagsChaosArm(t *testing.T) {
	defer fault.Reset()
	ff := parse(t, "-chaos", "cli/test:error:2")
	if _, done, err := ff.Apply(nil); err != nil || done {
		t.Fatalf("Apply() = %v, done=%v", err, done)
	}
	if err := fault.Hit(siteCLITest); err != nil {
		t.Fatalf("hit 1 fired before the After threshold: %v", err)
	}
	if err := fault.Hit(siteCLITest); err == nil {
		t.Error("armed site did not fire on hit 2 (spec after=2)")
	}
}

func TestFaultFlagsChaosBadSpec(t *testing.T) {
	defer fault.Reset()
	ff := parse(t, "-chaos", "no/such/site:error")
	if _, _, err := ff.Apply(nil); err == nil {
		t.Error("arming an unregistered site must error")
	}
}

func TestHideFlagsOmitsChaosFromUsage(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFaultFlags(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	out := buf.String()
	if strings.Contains(out, "-chaos") {
		t.Errorf("usage leaks the hidden -chaos flag:\n%s", out)
	}
	for _, want := range []string{"-retries", "-on-fault"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %s:\n%s", want, out)
		}
	}
}
