package campaign

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kfi/internal/crashnet"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/stats"
)

// countingSender is an injectable crashnet.Sender that tallies packets.
type countingSender struct {
	mu sync.Mutex
	n  int
}

func newCountingSender() *countingSender { return &countingSender{} }

func (c *countingSender) Send(crashnet.Packet) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return nil
}

func (c *countingSender) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// serialize renders results exactly as kfi-campaign's -out log does; the
// resume-equivalence contract is byte identity of this serialization.
func serialize(t *testing.T, p isa.Platform, spec Spec, results []inject.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stats.WriteResults(&buf, p, spec.Campaign, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInterruptAndResumeEquivalence kills a journaled campaign partway
// through (a panic stands in for SIGKILL: the journal is written with direct
// fd writes, so everything appended survives either) and resumes it from the
// journal. The resumed run must produce a byte-identical outcome table —
// crash causes, latencies, checksums and all — to the same campaign run
// uninterrupted, on both platforms.
func TestInterruptAndResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.String(), func(t *testing.T) {
			sys, golden, prof := getSystem(t, p)
			spec := Spec{Campaign: inject.CampStack, N: 12, Seed: 9}

			ref, err := Run(sys, golden, prof, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := serialize(t, p, spec, ref.Results)

			path := filepath.Join(t.TempDir(), "campaign.kjournal")
			h := HeaderFor(p, golden, spec)
			j, err := CreateJournal(path, h)
			if err != nil {
				t.Fatal(err)
			}
			// Interrupted run: die after the 5th completed injection. The
			// journal append happens before the progress callback, exactly
			// like a process killed between two injections.
			const dieAfter = 5
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("interrupted run finished without dying")
					}
				}()
				_, _ = RunWith(sys, golden, prof, spec, func(done, total int) {
					if done == dieAfter {
						panic("simulated process kill")
					}
				}, ExecOptions{Journal: j})
			}()
			j.Close()

			j2, completed, err := ResumeJournal(path, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(completed) != dieAfter {
				t.Fatalf("journal recovered %d outcomes, want %d", len(completed), dieAfter)
			}
			res, err := RunWith(sys, golden, prof, spec, nil,
				ExecOptions{Journal: j2, Completed: completed})
			if err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			got := serialize(t, p, spec, res.Results)
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed outcome table differs from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
			// The journal now records the whole campaign and replays it
			// without re-running anything.
			_, all, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != spec.N {
				t.Fatalf("final journal holds %d outcomes, want %d", len(all), spec.N)
			}
		})
	}
}

// supervisedModes are the two execution modes the one node runner
// supervises: fork-from-golden attempts and replay-from-boot attempts.
var supervisedModes = []struct {
	name   string
	replay bool
}{{"fork", false}, {"replay", true}}

// TestPanickingInjectionQuarantined seeds a harness bug that panics on one
// specific injection, every attempt. The campaign must survive: the victim
// is retried up to its budget, then recorded as OQuarantined with the panic
// diagnostics, while every other injection completes normally — in both
// execution modes.
func TestPanickingInjectionQuarantined(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	farm, err := NewFarm(isa.CISC, 2, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Campaign: inject.CampStack, N: 10, Seed: 2}
	for _, mode := range supervisedModes {
		t.Run(mode.name, func(t *testing.T) {
			farm.injectHook = nil
			ref, err := farm.RunWith(spec, nil, ExecOptions{Replay: mode.replay})
			if err != nil {
				t.Fatal(err)
			}

			const victim = 3
			var mu sync.Mutex
			attempts := 0
			farm.injectHook = func(idx int, run func() inject.Result) inject.Result {
				if idx == victim {
					mu.Lock()
					attempts++
					mu.Unlock()
					panic("seeded harness bug")
				}
				return run()
			}
			defer func() { farm.injectHook = nil }()
			res, err := farm.RunWith(spec, nil, ExecOptions{Replay: mode.replay, RetryBackoff: time.Nanosecond})
			if err != nil {
				t.Fatalf("campaign aborted instead of quarantining: %v", err)
			}
			if attempts != defaultMaxAttempts {
				t.Fatalf("victim attempted %d times, want %d", attempts, defaultMaxAttempts)
			}
			q := res.Results[victim]
			if q.Outcome != inject.OQuarantined {
				t.Fatalf("victim outcome = %v, want quarantined", q.Outcome)
			}
			if !strings.Contains(q.Diag, "seeded harness bug") || !strings.Contains(q.Diag, "3 attempts") {
				t.Fatalf("quarantine diagnostics missing detail: %q", q.Diag)
			}
			counts := stats.Summarize(res.Results)
			if counts.Quarantined != 1 {
				t.Fatalf("stats counted %d quarantined, want 1", counts.Quarantined)
			}
			// Every non-victim injection matches the clean run exactly.
			for i := range res.Results {
				if i == victim {
					continue
				}
				if res.Results[i] != ref.Results[i] {
					t.Errorf("injection %d perturbed by the quarantine: got %+v, want %+v",
						i, res.Results[i], ref.Results[i])
				}
			}
		})
	}
}

// TestNodeLossMidCampaignSameOutcomeTable kills one farm node SIGKILL-style
// partway through a campaign. The node's unfinished chunk must return to the
// steal queue and a replacement node take over, yielding an outcome table
// identical to an undisturbed run — in both execution modes.
func TestNodeLossMidCampaignSameOutcomeTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	farm, err := NewFarm(isa.RISC, 2, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Campaign: inject.CampStack, N: 12, Seed: 3}
	ref, err := farm.RunWith(spec, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := serialize(t, isa.RISC, spec, ref.Results)

	for _, mode := range supervisedModes {
		t.Run(mode.name, func(t *testing.T) {
			var mu sync.Mutex
			killed := false
			farm.fault = func(node, idx int) error {
				mu.Lock()
				defer mu.Unlock()
				// Kill original node 0 the first time it picks up work; the
				// replacement gets a fresh id, so it survives.
				if !killed && node == 0 {
					killed = true
					return errNodeDown
				}
				return nil
			}
			defer func() { farm.fault = nil }()
			res, err := farm.RunWith(spec, nil, ExecOptions{Replay: mode.replay})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			sawKill := killed
			mu.Unlock()
			if !sawKill {
				t.Fatal("fault hook never fired; the test killed nothing")
			}
			got := serialize(t, isa.RISC, spec, res.Results)
			if !bytes.Equal(got, want) {
				t.Fatalf("outcome table changed after node loss\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestFarmWithInjectedSender exercises the Sender seam end to end: a farm
// whose nodes share an injected in-memory sender must deliver crash packets
// for its known crashes through it.
func TestFarmWithInjectedSender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	ch := newCountingSender()
	farm, err := NewFarm(isa.CISC, 2, 1, kernel.Options{CrashSender: ch})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Campaign: inject.CampCode, N: 12, Seed: 2}
	res, err := farm.RunWith(spec, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, r := range res.Results {
		if r.Outcome == inject.OCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("campaign produced no known crashes; pick a different seed")
	}
	if ch.count() == 0 {
		t.Fatalf("%d known crashes but the injected sender saw no packets", crashes)
	}
}
