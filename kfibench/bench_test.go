package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
)

// tiny returns each workload at a few injections per campaign.
func tiny(t *testing.T) []*workload {
	t.Helper()
	var out []*workload
	for _, w := range workloads {
		c := *w
		c.name += "-tiny"
		if c.n > 0 {
			c.n = 3
		} else {
			c.fraction = 0.0001
		}
		out = append(out, &c)
	}
	return out
}

// withDigests commits, for the duration of the test, the gate digests of the
// given workloads as computed now.
func withDigests(t *testing.T, ws []*workload) {
	t.Helper()
	all := map[string]map[string]map[string]string{}
	for _, w := range ws {
		dir := t.TempDir()
		r, err := runRound(w, gateSeed, dir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := journalDigests(w, r, dir)
		if err != nil {
			t.Fatal(err)
		}
		all[w.name] = map[string]map[string]string{fmt.Sprint(gateSeed): d}
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	old := digestsJSON
	digestsJSON = b
	t.Cleanup(func() { digestsJSON = old })
}

func newBench(t *testing.T, w *workload) *bench {
	return &bench{w: w, seed: 3, seconds: 0.01, work: t.TempDir(), countsDir: t.TempDir(), round: runRound}
}

// The benchmark's round is the CLI's invocation: its journals equal the ones
// core.Run (what kfi-campaign calls) writes for the same flags.
func TestRoundMatchesCLI(t *testing.T) {
	for _, w := range tiny(t) {
		dir := t.TempDir()
		r, err := runRound(w, 7, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := journalDigests(w, r, dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Platforms: w.platforms, Campaigns: w.campaigns, Seed: 7,
			Nodes: w.nodes(), JournalDir: t.TempDir()}
		if w.n > 0 {
			cfg.Counts = map[inject.Campaign]int{}
			for _, c := range w.campaigns {
				cfg.Counts[c] = w.n
			}
		} else {
			cfg.PaperFraction = w.fraction
		}
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.platforms {
			for _, c := range w.campaigns {
				h, completed, err := campaign.ReadJournal(core.JournalPath(cfg.JournalDir, p, c))
				if err != nil {
					t.Fatal(err)
				}
				b, err := campaign.CanonicalJournalBytes(h, completed)
				if err != nil {
					t.Fatal(err)
				}
				if k := campKey(p, c); got[k] != digest(b) {
					t.Errorf("%s %s: benchmark round and core.Run journals differ", w.name, k)
				}
			}
		}
	}
}

// Every workload's gate round reproduces the committed digests.
func TestCommittedDigests(t *testing.T) {
	for _, w := range workloads {
		dir := t.TempDir()
		r, err := runRound(w, gateSeed, dir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := journalDigests(w, r, dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := checkDigests(w, gateSeed, d); !ok || err != nil {
			t.Errorf("%s: committed=%v err=%v", w.name, ok, err)
		}
	}
}

// Both kinds of run produce exactly the declared metrics, and the traced one
// reconciles its phases.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	ws := tiny(t)
	withDigests(t, ws)
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			b := newBench(t, w)
			run := b.untraced
			if trace {
				run = b.traced
			}
			metrics, attempted, failed, err := run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if err := checkNames(metrics, trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if attempted < 3 || failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w.name, trace, attempted, failed)
			}
			if !trace {
				for k, v := range metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v", w.name, k, v.Value)
					}
				}
			}
		}
	}
}

// A digest that does not match fails the run before any number is produced.
func TestDigestMismatchFailsRun(t *testing.T) {
	w := tiny(t)[0]
	withDigests(t, []*workload{w})
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		t.Fatal(err)
	}
	for k := range all[w.name][fmt.Sprint(gateSeed)] {
		all[w.name][fmt.Sprint(gateSeed)][k] = strings.Repeat("0", 64)
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	digestsJSON = b
	metrics, _, _, err := newBench(t, w).untraced()
	if err == nil || !strings.Contains(err.Error(), "outcome digest gate") || metrics != nil {
		t.Fatalf("tampered digest: metrics %v, err %v", metrics, err)
	}
}

// A count that differs from an earlier run of the same program is reported.
func TestCountDriftIsReported(t *testing.T) {
	dir := t.TempDir()
	w := workloads[0]
	if err := checkCounts(dir, w, 5, map[string]string{"layer x": "1"}); err != nil {
		t.Fatal(err)
	}
	if err := checkCounts(dir, w, 5, map[string]string{"layer x": "1", "layer y": "2"}); err != nil {
		t.Fatal(err)
	}
	if err := checkCounts(dir, w, 5, map[string]string{"layer y": "3"}); err == nil {
		t.Fatal("drifted count accepted")
	}
}

// Self times reconcile with the traced total, and a span that escapes its
// parent is caught.
func TestReconciliation(t *testing.T) {
	tr := newTracer()
	root := tr.begin("round")
	a := tr.begin("a")
	tr.begin("b")
	tr.end(a + 1)
	tr.end(a)
	tr.end(root)
	self, total, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	if err := reconcile(self, total); err != nil {
		t.Fatal(err)
	}
	tr.spans[a+1].End = tr.spans[root].End + 1
	if _, _, err := tr.selfTimes(); err == nil {
		t.Fatal("escaping span accepted")
	}
}

// BENCHMARK.json at the repository root is what --write-manifest writes.
func TestManifestUpToDate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeManifest(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: run bash kfibench/run.sh --write-manifest BENCHMARK.json")
	}
}
