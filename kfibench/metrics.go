package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"kfi/internal/inject"
)

// endToEnd are the metrics a user of kfi-campaign sees, measured untraced.
// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression.
var endToEnd = []e2eMetric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"injections_per_s", "1/s", "higher", 0.25},
	{"guest_cycles_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// outcomeOrder and kindOrder fix the order of per-outcome and per-campaign
// metrics.
var (
	outcomeOrder = []inject.Outcome{inject.ONotActivated, inject.ONotManifested,
		inject.OFailSilence, inject.OCrash, inject.OHangUnknown, inject.ODetected}
	kindOrder = []inject.Campaign{inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode}
)

// spanLayers are the traced layer calls; each reports its self time as
// <name>_s. campaignLayers are the ones inside the campaign phase.
var (
	setupLayers    = []string{"cc.compile", "kernel.build", "campaign.golden", "campaign.profile"}
	campaignLayers = []string{"journal.open", "campaign.targets", "campaign.trace_golden",
		"snapshot.capture", "snapshot.restore", "machine.advance", "snapshot.recapture",
		"inject.run", "journal.append", "journal.close"}
)

// layerCounts are the deterministic counts recorded at layer boundaries.
var layerCounts = []string{"campaign.pre_count", "snapshot.restore_pages", "snapshot.recapture_pages",
	"mem.dirty_pages", "machine.advance_cycles", "inject.run_cycles", "journal.appends"}

// perLayer lists the traced run's metrics. Times and counts are means per
// round over the traced rounds.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, l := range append(append([]string{}, setupLayers...), campaignLayers...) {
		out = append(out, layerMetric{l + "_s", "s", "lower"})
	}
	out = append(out,
		layerMetric{"campaign.pre_count", "count", "higher"},
		layerMetric{"snapshot.restore_pages", "count", "lower"},
		layerMetric{"snapshot.recapture_pages", "count", "lower"},
		layerMetric{"mem.dirty_pages", "count", "lower"},
		layerMetric{"machine.advance_cycles", "cycles", "lower"},
		layerMetric{"inject.run_cycles", "cycles", "lower"},
		layerMetric{"inject.ns_per_cycle", "ns", "lower"},
		layerMetric{"inject.ms_p50", "ms", "lower"},
		layerMetric{"inject.ms_p95", "ms", "lower"},
		layerMetric{"journal.appends", "count", "lower"},
		layerMetric{"engine.blocks", "count", "lower"},
		layerMetric{"engine.hits", "count", "higher"},
		layerMetric{"engine.invalidations", "count", "lower"},
		layerMetric{"engine.fallbacks", "count", "lower"},
		layerMetric{"campaign.driver_s", "s", "lower"},
		layerMetric{"campaign.failed_frac", "frac", "lower"},
		layerMetric{"farm.efficiency", "frac", "higher"},
		layerMetric{"trace.overhead_frac", "frac", "lower"},
		layerMetric{"trace.unaccounted_frac", "frac", "lower"},
	)
	for _, o := range outcomeOrder {
		tag := outcomeTag[o]
		out = append(out,
			layerMetric{"inject.s." + tag, "s", "lower"},
			layerMetric{"inject.cycles." + tag, "cycles", "lower"},
			layerMetric{"inject.count." + tag, "count", "lower"},
			layerMetric{"share.inj." + tag, "frac", "lower"},
			layerMetric{"share.s." + tag, "frac", "lower"})
	}
	for _, c := range kindOrder {
		tag := kindTag[c]
		out = append(out,
			layerMetric{"share.inj." + tag, "frac", "lower"},
			layerMetric{"share.s." + tag, "frac", "lower"})
	}
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []e2eMetric     `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures.
const runSeconds = 40

func writeManifest(path string) error {
	m := manifest{
		Command:    []string{"bash", "kfibench/run.sh"},
		Paths:      []string{"kfibench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name and unit, then the result line.
func report(metrics map[string]value, attempted, failed int) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, attempted, failed, metrics})
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Println(string(b))
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation (sorting xs).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer() {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("kfibench: no metric " + name)
}

// checkNames verifies that a result carries exactly the declared metrics
// with their units.
func checkNames(metrics map[string]value, trace bool) error {
	want := map[string]string{}
	if trace {
		for _, m := range perLayer() {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.Name] = m.Unit
		}
	}
	var bad []string
	for k, v := range metrics {
		if u, ok := want[k]; !ok || u != v.Unit {
			bad = append(bad, k)
		}
	}
	for k := range want {
		if _, ok := metrics[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("undeclared, missing or mis-united metrics: %s", strings.Join(bad, ", "))
	}
	return nil
}
