package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/harness"
	"repro/internal/htm"
)

// TestFaultAndCrossRejectNaN: strconv.ParseFloat accepts "NaN", which
// passes both a clamp written with < and > and a range check written as
// r < 0 || r > 1. -fault NaN would silently run the full chaos sweep and
// -cross NaN a never-crossing row labelled cNaN; both must be rejected,
// while finite out-of-range -fault values keep clamping.
func TestFaultAndCrossRejectNaN(t *testing.T) {
	for _, tc := range []struct {
		in, want float64
		ok       bool
	}{
		{math.NaN(), 0, false},
		{-0.5, 0, true},
		{0.25, 0.25, true},
		{3, 1, true},
		{math.Inf(1), 1, true},
	} {
		if got, ok := clampFault(tc.in); ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("clampFault(%v) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"NaN", false},
		{"nan", false},
		{"-0.1", false},
		{"1.5", false},
		{"Inf", false},
		{"x", false},
		{" 0.2", true},
		{"0", true},
		{"1", true},
	} {
		if _, ok := parseRatio(tc.in); ok != tc.ok {
			t.Errorf("parseRatio(%q) ok = %v, want %v", tc.in, ok, tc.ok)
		}
	}
}

// TestDurationAndCoresRejectNonPositive: -duration -5ms would run one
// batch of ops per thread and print a rate for it, and -cores -2 would pass
// Build's PhysCores > 0 test as "no limit", turning the hyper-threading
// capacity halving off. Both must be rejected, as zero is.
func TestDurationAndCoresRejectNonPositive(t *testing.T) {
	for _, tc := range []struct {
		in time.Duration
		ok bool
	}{
		{-5 * time.Millisecond, false},
		{0, false},
		{time.Nanosecond, true},
		{50 * time.Millisecond, true},
	} {
		if ok := validDuration(tc.in); ok != tc.ok {
			t.Errorf("validDuration(%v) = %v, want %v", tc.in, ok, tc.ok)
		}
	}
	for _, tc := range []struct {
		in int
		ok bool
	}{
		{-2, false},
		{0, false},
		{1, true},
		{4, true},
	} {
		if ok := validCores(tc.in); ok != tc.ok {
			t.Errorf("validCores(%d) = %v, want %v", tc.in, ok, tc.ok)
		}
	}
}

// TestDomainsRejectsOutOfRange: -domains 65 used to reach domain.New, which
// panics past MaxDomains; it must be rejected as -cores 0 is.
func TestDomainsRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		in int
		ok bool
	}{
		{0, false},
		{1, true},
		{domain.MaxDomains, true},
		{domain.MaxDomains + 1, false},
	} {
		if ok := validDomains(tc.in); ok != tc.ok {
			t.Errorf("validDomains(%d) = %v, want %v", tc.in, ok, tc.ok)
		}
	}
}

// TestThreadsRejectsOutOfRange: -threads 65 used to reach the engine's
// Begin, which panicked with "slot 64 out of range"; a count past
// htm.MaxSlots must be rejected as -domains 65 is.
func TestThreadsRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		in int
		ok bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{htm.MaxSlots, true},
		{htm.MaxSlots + 1, false},
		{65, false},
	} {
		if ok := validThreads(tc.in); ok != tc.ok {
			t.Errorf("validThreads(%d) = %v, want %v", tc.in, ok, tc.ok)
		}
	}
}

// TestSystemsRejectsUnknownNames: -systems parthtm used to reach Build on an
// experiment's worker goroutine, which panicked with "unknown system"; a name
// outside harness.AllSystemNames must be rejected as -threads 65 is.
func TestSystemsRejectsUnknownNames(t *testing.T) {
	for _, name := range harness.AllSystemNames {
		if !validSystem(name) {
			t.Errorf("validSystem(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"parthtm", "part-htm", "", "Sequential", "Part-HTM "} {
		if validSystem(name) {
			t.Errorf("validSystem(%q) = true, want false", name)
		}
	}
}

// binDir holds the command built once for the tests that run it.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "parthtm-bench-test")
	if err != nil {
		panic(err)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs the command, built from this package on first use, with
// args, and returns what it printed and its exit code.
func runBench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin := filepath.Join(binDir, "parthtm-bench")
	if _, err := os.Stat(bin); err != nil {
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			t.Fatalf("building the command: %v\n%s", err, out)
		}
	}
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running %v: %v", args, err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// TestListFlagsRejectWithTheirMessages pins what a bad element of each
// comma-list flag prints: the element as given (untrimmed), -systems with
// the names it takes, and exit 2 before any experiment runs.
func TestListFlagsRejectWithTheirMessages(t *testing.T) {
	allSystems := strings.Join(harness.AllSystemNames, ",")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-threads", "0"}, `bad -threads value "0"`},
		{[]string{"-threads", "2,x"}, `bad -threads value "x"`},
		{[]string{"-threads", "1, 25"}, `bad -threads value " 25"`},
		{[]string{"-threads", "4,"}, `bad -threads value ""`},
		{[]string{"-systems", "parthtm"}, `bad -systems value "parthtm" (one of ` + allSystems + `)`},
		{[]string{"-systems", "Part-HTM, x"}, `bad -systems value " x" (one of ` + allSystems + `)`},
		{[]string{"-domains", "65"}, `bad -domains value "65"`},
		{[]string{"-domains", "1,0"}, `bad -domains value "0"`},
		{[]string{"-cross", "NaN"}, `bad -cross value "NaN"`},
		{[]string{"-cross", "0,1.5"}, `bad -cross value "1.5"`},
		{[]string{"-threads", "0", "-systems", "x"}, `bad -threads value "0"`},
	} {
		args := append([]string{"-exp", "table1", "-duration", "10ms"}, tc.args...)
		stdout, stderr, code := runBench(t, args...)
		if want := "parthtm-bench: " + tc.want + "\n"; stderr != want || code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q",
				tc.args, code, stdout, stderr, want)
		}
	}
}

// TestBadNameStopsBeforeAnyExperiment: the soak used to read -campaign
// only when it ran, so -exp table1,soak -campaign nope printed table1 and
// then exited 1, and -exp table1,nope printed table1 before its exit 2. A
// bad campaign or experiment name exits 2 before table1 runs.
func TestBadNameStopsBeforeAnyExperiment(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1,soak", "-campaign", "nope"}, `-campaign: unknown soak campaign "nope" (have: storm, ramp)`},
		{[]string{"-exp", "table1, nope"}, `unknown experiment "nope" (use -list)`},
	} {
		stdout, stderr, code := runBench(t, append(tc.args, "-duration", "10ms")...)
		if want := "parthtm-bench: " + tc.want + "\n"; code != 2 || stdout != "" || stderr != want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q",
				tc.args, code, stdout, stderr, want)
		}
	}
	for _, name := range []string{"", "storm", "ramp"} {
		if _, _, err := harness.SoakFaultConfig(name, 1); err != nil {
			t.Errorf("campaign %q rejected: %v", name, err)
		}
	}
}
