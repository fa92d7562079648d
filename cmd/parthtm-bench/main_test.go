package main

import (
	"math"
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
