package main

import (
	"math"
	"testing"
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
