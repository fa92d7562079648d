package main

import (
	"math"
	"slices"
)

// metricDef is one metric's name, unit and direction as BENCHMARK.json
// declares it; bound is the share of the parent's median by which an
// end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the three systems sees; every workload reports
// all six.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"parthtm.tx_per_s", "1/s", "higher", 0.20},
	{"parthtmo.tx_per_s", "1/s", "higher", 0.20},
	{"htmgl.tx_per_s", "1/s", "higher", 0.20},
	{"parthtm.nolock_share", "share", "higher", 0.002},
	{"parthtmo.nolock_share", "share", "higher", 0.002},
}

// ledgerMetrics are the layer prices of ledger.go, in layer order.
var ledgerMetrics = []string{
	"mem.load_ns", "mem.store_ns",
	"htm.begin_commit_ns", "htm.read_first_ns", "htm.read_hit_ns",
	"htm.write_first_ns", "htm.write_hit_ns", "htm.commit_per_wline_ns",
	"sig.add_ns", "sig.intersects_ns",
	"ring.publish_sw_ns", "ring.publish_htm_ns", "ring.validate_entry_ns",
	"domain.of_ns", "domain.claim_publish_n1_ns", "domain.claim_publish_cross_ns",
	"exec.run_empty_ns", "exec.run_empty_attached_ns",
	"core.tx_empty_ns", "core.first_write_ns", "core.fast_read_ns", "core.fast_write_ns",
	"core.sub_read_ns", "core.sub_write_ns", "core.pause_ns",
	"core.opaque_read_ns", "core.opaque_write_ns",
	"htmgl.tx_empty_ns", "htmgl.read_ns", "htmgl.write_ns",
}

var instruments = []string{"trace", "prof", "governor", "obs"}

// perLayer lists every per-layer metric in the order the report prints them.
func perLayer() []metricDef {
	var defs []metricDef
	for _, n := range ledgerMetrics {
		defs = append(defs, metricDef{name: n, unit: "ns", better: "lower"})
	}
	defs = append(defs, metricDef{name: "seq.tx_per_s", unit: "1/s", better: "higher"})
	for _, in := range instruments {
		defs = append(defs, metricDef{name: in + ".attached_overhead", unit: "ratio", better: "lower"})
	}
	for _, q := range []string{"min", "median", "max"} {
		defs = append(defs, metricDef{name: "bench.host_speed_" + q, unit: "ratio", better: "lower"})
	}
	defs = append(defs, metricDef{name: "bench.host_alu_speed_median", unit: "ratio", better: "lower"})
	defs = append(defs, metricDef{name: "bench.samples", unit: "count", better: "higher"})
	for _, s := range measured {
		defs = append(defs,
			metricDef{name: s.label + ".ns_per_tx_p25", unit: "ns", better: "lower"},
			metricDef{name: s.label + ".ns_per_tx_p75", unit: "ns", better: "lower"},
			metricDef{name: "tm." + s.label + ".htm_share", unit: "share", better: "higher"},
			metricDef{name: "tm." + s.label + ".sw_share", unit: "share", better: "higher"},
			metricDef{name: "tm." + s.label + ".gl_share", unit: "share", better: "lower"},
			metricDef{name: "htm." + s.label + ".attempts_per_commit", unit: "count", better: "lower"},
			metricDef{name: "htm." + s.label + ".abort_conflict_share", unit: "share", better: "lower"},
			metricDef{name: "htm." + s.label + ".abort_capacity_share", unit: "share", better: "lower"},
			metricDef{name: "htm." + s.label + ".abort_other_share", unit: "share", better: "lower"},
			metricDef{name: "exec." + s.label + ".body_runs_per_commit", unit: "count", better: "lower"},
			metricDef{name: "core." + s.label + ".access_ns_per_tx", unit: "ns", better: "lower"},
			metricDef{name: "exec." + s.label + ".outside_body_ns_per_tx", unit: "ns", better: "lower"},
			metricDef{name: "bench." + s.label + ".body_self_ns_per_tx", unit: "ns", better: "lower"},
		)
	}
	defs = append(defs, metricDef{name: "bench.trace_overhead", unit: "ns", better: "lower"})
	return defs
}

// quantile returns the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// share is part/whole, 0 when there is no whole.
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
