package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
)

// TestPreRowsInIndexOrder: rows synthesized without execution (code targets
// the golden run never reaches) are journaled and reported in ascending
// index order, so two runs of the same spec on one node write byte-equal
// raw journals, and RunIndices reports them in the same order.
func TestPreRowsInIndexOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	spec := Spec{Campaign: inject.CampCode, N: 30, Seed: 8}
	nr, err := NewNodeRunner(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	plan, err := nr.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pre) < 2 {
		t.Fatalf("plan synthesizes %d rows; the spec must yield at least 2 to test their order", len(plan.Pre))
	}

	var journals [2][]byte
	for i := range journals {
		sys, golden, prof := getSystem(t, isa.CISC)
		path := filepath.Join(t.TempDir(), "code.kjournal")
		j, err := CreateJournal(path, HeaderFor(isa.CISC, golden, spec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Journal: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if journals[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Fatal("two one-node runs of the same spec wrote different raw journals")
	}

	var want []int
	for i := spec.N - 1; i >= 0; i-- { // descending: the report order must not follow want
		if _, pre := plan.Pre[i]; pre {
			want = append(want, i)
		}
	}
	last := -1
	err = nr.RunIndices(plan, want, ExecOptions{}, func(idx int, _ inject.Result) error {
		if idx < last {
			t.Errorf("Pre row %d reported after %d", idx, last)
		}
		last = idx
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogReplacesStuckNode seeds an injection that blocks its first
// attempt past the wall-clock watchdog. A farm — of two nodes, or of one as
// core.Run builds at -nodes 1 — abandons the stuck machine, replaces it from
// its build inputs and retries, producing the table of an unhooked run. A
// caller-owned system (RunWith) cannot be replaced and reports the named
// watchdog error instead.
func TestWatchdogReplacesStuckNode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	const victim = 2
	spec := Spec{Campaign: inject.CampStack, N: 6, Seed: 4}
	release := make(chan struct{})
	defer close(release) // lets the abandoned attempts finish on their dead machines
	// blockOnce makes the victim's first attempt hang until the test ends;
	// its retry on the replacement node runs normally.
	blockOnce := func() func(int, func() inject.Result) inject.Result {
		var once sync.Once
		return func(idx int, run func() inject.Result) inject.Result {
			if idx == victim {
				blocked := false
				once.Do(func() { blocked = true })
				if blocked {
					<-release
				}
			}
			return run()
		}
	}
	opts := ExecOptions{InjectionTimeout: 2 * time.Second}

	for _, n := range []int{2, 1} {
		farm, err := NewFarm(isa.CISC, n, 1, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := farm.RunWith(spec, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]*kernel.System(nil), farm.nodes...)
		farm.injectHook = blockOnce()
		res, err := farm.RunWith(spec, nil, opts)
		if err != nil {
			t.Fatalf("%d-node farm: %v", n, err)
		}
		for i := range res.Results {
			if res.Results[i] != ref.Results[i] {
				t.Errorf("%d-node farm: injection %d = %+v, unhooked %+v", n, i, res.Results[i], ref.Results[i])
			}
		}
		replaced := 0
		for i := range before {
			if farm.nodes[i] != before[i] {
				replaced++
			}
		}
		if replaced != 1 {
			t.Errorf("%d-node farm: %d nodes replaced, want the stuck one", n, replaced)
		}
	}

	owner, err := NewFarm(isa.CISC, 1, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The farm of one RunWith wraps around a caller-owned system.
	owned := &Farm{platform: isa.CISC, nodes: owner.nodes, golden: owner.golden, profile: owner.profile,
		injectHook: blockOnce()}
	_, err = owned.RunWith(spec, nil, opts)
	if err == nil || !strings.Contains(err.Error(), "wall-clock watchdog") {
		t.Fatalf("caller-owned run: err = %v, want the named watchdog error", err)
	}
}
