package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"kfi/internal/isa"
)

// traced measures the per-layer metrics: untraced rounds for a third of the
// time, then every one of those rounds re-driven twice through the layer
// calls, untraced and traced. The untraced re-drive prices the tracing; the
// campaign driver's own rounds price everything the layers do not.
func (b *bench) traced() (map[string]value, int, int, error) {
	if err := b.gate(); err != nil {
		return nil, 0, 0, err
	}
	hits, err := goldenFacts(b.w)
	if err != nil {
		return nil, 0, 0, err
	}
	rounds, err := b.measure(b.seconds / 3)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := newTracer()
	var plainWall, tracedWall, nodeSeconds float64
	var engine [4]float64
	attempted, failed := 0, 0
	for i, r := range rounds {
		dir := filepath.Join(b.work, fmt.Sprintf("redrive-%d", i))
		plain, err := redrive(b.w, r.seed, dir, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := b.verifyRedrive(r, plain); err != nil {
			return nil, 0, 0, err
		}
		before := make(map[string]float64, len(tr.counts))
		for k, v := range tr.counts {
			before[k] = v
		}
		tr.round = i
		re, err := redrive(b.w, r.seed, dir, tr)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := b.verifyRedrive(r, re); err != nil {
			return nil, 0, 0, fmt.Errorf("traced run: %w", err)
		}
		if err := checkSynthesized(re, hits); err != nil {
			return nil, 0, 0, err
		}
		layers := map[string]string{}
		for k, v := range tr.counts {
			if isCount(k) {
				layers["layer "+k] = fmt.Sprint(v - before[k])
			}
		}
		if err := checkCounts(b.countsDir, b.w, r.seed, layers); err != nil {
			return nil, 0, 0, fmt.Errorf("exact counts: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, 0, err
		}
		plainWall += plain.wallS
		tracedWall += re.wallS
		nodeSeconds += float64(b.w.nodes()) * r.campaignS
		for _, c := range re.camps {
			engine[0] += float64(c.engine.Translated)
			engine[1] += float64(c.engine.Hits)
			engine[2] += float64(c.engine.Invalidations)
			engine[3] += float64(c.engine.Fallbacks)
		}
		attempted += r.injections()
		failed += r.quarantined()
	}

	self, total, err := tr.selfTimes()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("trace: %w", err)
	}
	if err := reconcile(self, total); err != nil {
		return nil, 0, 0, fmt.Errorf("phase reconciliation: %w", err)
	}
	layerSpans := 0.0
	for _, s := range tr.spans {
		if slices.Contains(campaignLayers, s.Name) {
			layerSpans += float64(s.End-s.Start) / 1e9
		}
	}

	n := float64(len(rounds))
	metrics := map[string]value{}
	set := func(name string, v float64) { metrics[name] = value{v, unitOf(name)} }
	for _, l := range append(append([]string{}, setupLayers...), campaignLayers...) {
		set(l+"_s", self[l]/n)
	}
	for _, k := range layerCounts {
		set(k, tr.counts[k]/n)
	}
	set("inject.ns_per_cycle", ratio(self["inject.run"]*1e9, tr.counts["inject.run_cycles"]))
	set("inject.ms_p50", quantile(tr.injectMs, 0.5))
	set("inject.ms_p95", quantile(tr.injectMs, 0.95))
	set("engine.blocks", engine[0]/n)
	set("engine.hits", engine[1]/n)
	set("engine.invalidations", engine[2]/n)
	set("engine.fallbacks", engine[3]/n)
	set("campaign.driver_s", (nodeSeconds-layerSpans)/n)
	set("campaign.failed_frac", ratio(float64(failed), float64(attempted)))
	set("farm.efficiency", ratio(layerSpans, nodeSeconds))
	set("trace.overhead_frac", ratio(tracedWall, plainWall)-1)
	set("trace.unaccounted_frac", ratio(self["round"], total))
	var injSum, sSum, kindInj, kindS float64
	for _, o := range outcomeOrder {
		injSum += tr.counts["inject.count."+outcomeTag[o]]
		sSum += tr.counts["inject.s."+outcomeTag[o]]
	}
	for _, c := range kindOrder {
		kindInj += tr.counts["count."+kindTag[c]]
		kindS += tr.counts["campaign_s."+kindTag[c]]
	}
	for _, o := range outcomeOrder {
		tag := outcomeTag[o]
		set("inject.s."+tag, tr.counts["inject.s."+tag]/n)
		set("inject.cycles."+tag, tr.counts["inject.cycles."+tag]/n)
		set("inject.count."+tag, tr.counts["inject.count."+tag]/n)
		set("share.inj."+tag, ratio(tr.counts["inject.count."+tag], injSum))
		set("share.s."+tag, ratio(tr.counts["inject.s."+tag], sSum))
	}
	for _, c := range kindOrder {
		tag := kindTag[c]
		set("share.inj."+tag, ratio(tr.counts["count."+tag], kindInj))
		set("share.s."+tag, ratio(tr.counts["campaign_s."+tag], kindS))
	}
	spans := filepath.Join(filepath.Dir(b.countsDir), fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed))
	if err := tr.write(spans); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("workload %s seed %d: %d rounds traced, %d injections, %d spans in %s\n",
		b.w.name, b.seed, len(rounds), attempted, len(tr.spans), spans)
	return metrics, attempted, failed, checkNames(metrics, true)
}

// checkSynthesized verifies the rule executedCycles uses against the rows the
// re-drive actually synthesized.
func checkSynthesized(re *roundOut, hits map[isa.Platform]*goldenHits) error {
	for _, k := range re.keys {
		c := re.camps[k]
		for i, row := range c.rows {
			if synthesizedRow(row, hits[c.header.Platform]) != c.synthesized[i] {
				return fmt.Errorf("seed %d: %s row %d: synthesized-row rule disagrees with the scheduler", re.seed, k, i)
			}
		}
	}
	return nil
}

// isCount reports whether a tracer count is deterministic (not a time).
func isCount(name string) bool {
	return slices.Contains(layerCounts, name) ||
		strings.HasPrefix(name, "inject.count.") || strings.HasPrefix(name, "inject.cycles.")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
