// Command kfibench is the repository's benchmark. It times whole kfi-campaign
// invocations (setup, campaigns, journals) on two workloads, checks every
// output against committed digests and an independent layer-by-layer
// re-drive, and prints every metric by name and unit, then one JSON result
// line. Run it from the repository root:
//
//	bash kfibench/run.sh --workload data-g4 --seed 1 --seconds 40 --trace 0
//	bash kfibench/run.sh --workload all                       # every workload in turn
//	bash kfibench/run.sh --write-manifest BENCHMARK.json      # regenerate BENCHMARK.json
//	bash kfibench/run.sh --record-digests kfibench/digests.json
//
// See kfibench/README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kfibench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kfibench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: data-g4, study-mix, or all")
		seed     = fs.Int64("seed", 1, "input seed (1 is the baseline; 2 is held out for validating claims)")
		seconds  = fs.Float64("seconds", runSeconds, "measurement time of one run")
		trace    = fs.Int("trace", 0, "1: report the per-layer metrics of a traced re-drive instead of the end-to-end ones")
		manifest = fs.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
		record   = fs.String("record-digests", "", "run every workload's gate round, write its journal digests to this path and exit")
		child    = fs.String("child-round", "", "run one round at this seed in this process, journaling under --dir, and print its report")
		dir      = fs.String("dir", "", "journal directory of --child-round")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest != "" {
		return writeManifest(*manifest)
	}
	state := os.Getenv("CARGO_TARGET_DIR")
	if state == "" {
		state = ".bench_build"
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(state, "kfibench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	switch {
	case *record != "":
		return recordDigests(*record, work)
	case *name == "all":
		return runAll(*seed, *seconds, *trace)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *child != "" {
		seed, err := strconv.ParseInt(*child, 10, 64)
		if err != nil {
			return fmt.Errorf("--child-round: %w", err)
		}
		return childRound(w, seed, *dir)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	fp, err := sourceFingerprint(".")
	if err != nil {
		return err
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, work: work,
		countsDir: filepath.Join(state, "kfibench-counts", fp), round: spawnRound}
	measure := b.untraced
	if *trace == 1 {
		measure = b.traced
	}
	metrics, attempted, failed, err := measure()
	if err != nil {
		return err
	}
	report(metrics, attempted, failed)
	return nil
}

// runAll runs every workload in its own process, so that no workload's
// peak memory carries over into the next.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	w         *workload
	seed      int64
	seconds   float64
	work      string
	countsDir string
	// round runs one untraced round: in a child process (spawnRound), or in
	// this one (runRound) in tests.
	round func(w *workload, seed int64, dir string) (*roundOut, error)
}

// gate runs the gate round and checks its journals against the committed
// digests, before anything is timed.
func (b *bench) gate() error {
	dir := filepath.Join(b.work, "gate")
	r, err := b.round(b.w, gateSeed, dir)
	if err != nil {
		return err
	}
	d, err := journalDigests(b.w, r, dir)
	if err != nil {
		return err
	}
	ok, err := checkDigests(b.w, gateSeed, d)
	if err != nil {
		return fmt.Errorf("outcome digest gate: %w", err)
	}
	if !ok {
		return fmt.Errorf("outcome digest gate: no digests committed for %s seed %d", b.w.name, gateSeed)
	}
	return os.RemoveAll(dir)
}

// measure runs untraced rounds at successive round seeds until budget has
// passed (at least minRounds), checking each round's journals.
func (b *bench) measure(budget float64) ([]*roundOut, error) {
	const minRounds = 3
	var rounds []*roundOut
	start := time.Now()
	for r := 0; len(rounds) < minRounds || time.Since(start).Seconds() < budget; r++ {
		dir := filepath.Join(b.work, fmt.Sprintf("round-%d", r))
		ro, err := b.round(b.w, roundSeed(b.seed, r), dir)
		if err != nil {
			return nil, err
		}
		d, err := journalDigests(b.w, ro, dir)
		if err != nil {
			return nil, err
		}
		if _, err := checkDigests(b.w, ro.seed, d); err != nil {
			return nil, fmt.Errorf("outcome digest gate: %w", err)
		}
		if err := checkCounts(b.countsDir, b.w, ro.seed, b.exactCounts(ro, d)); err != nil {
			return nil, fmt.Errorf("exact counts: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rounds = append(rounds, ro)
		runtime.GC() // collect here, not while the next round's child runs
	}
	return rounds, nil
}

// exactCounts lists what a round must reproduce in every run.
func (b *bench) exactCounts(r *roundOut, digests map[string]string) map[string]string {
	c := map[string]string{}
	for k, d := range digests {
		c["journal "+k] = d
		if b.w.nodes() == 1 {
			c["engine "+k] = fmt.Sprint(r.camps[k].engine)
		}
	}
	return c
}

// verifyRedrive checks a re-drive of round r against r itself.
func (b *bench) verifyRedrive(r, re *roundOut) error {
	if err := sameRows(r, re); err != nil {
		return err
	}
	if b.w.nodes() > 1 {
		return nil
	}
	for _, k := range r.keys {
		if x, y := r.camps[k].engine, re.camps[k].engine; x != y {
			return fmt.Errorf("seed %d: %s engine counters %+v from the campaign driver, %+v from the re-drive", r.seed, k, x, y)
		}
	}
	return nil
}

// untraced measures the end-to-end metrics. It returns them with the
// number of injections attempted and failed (quarantined).
func (b *bench) untraced() (map[string]value, int, int, error) {
	if err := b.gate(); err != nil {
		return nil, 0, 0, err
	}
	hits, err := goldenFacts(b.w)
	if err != nil {
		return nil, 0, 0, err
	}
	rounds, err := b.measure(b.seconds)
	if err != nil {
		return nil, 0, 0, err
	}

	// Reference: round 0 again through the layer-by-layer re-drive.
	re, err := redrive(b.w, rounds[0].seed, filepath.Join(b.work, "reference"), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := b.verifyRedrive(rounds[0], re); err != nil {
		return nil, 0, 0, err
	}

	var setup, wall, injRate, cycRate, rss []float64
	attempted, failed := 0, 0
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		wall = append(wall, r.wallS)
		injRate = append(injRate, float64(r.injections())/r.campaignS)
		cycRate = append(cycRate, float64(executedCycles(r, hits))/r.campaignS)
		rss = append(rss, r.rssMB)
		attempted += r.injections()
		failed += r.quarantined()
	}
	fmt.Printf("workload %s seed %d: %d rounds, %d injections; round 0 is\n  %s\n",
		b.w.name, b.seed, len(rounds), attempted, b.w.command(rounds[0].seed))
	metrics := map[string]value{
		"setup_s":            {median(setup), "s"},
		"wall_s":             {median(wall), "s"},
		"injections_per_s":   {median(injRate), "1/s"},
		"guest_cycles_per_s": {median(cycRate), "1/s"},
		"peak_rss_mb":        {median(rss), "MB"},
	}
	return metrics, attempted, failed, checkNames(metrics, false)
}

// goldenFacts traces one golden run per platform: which PCs it executes and
// how long it runs. Rows the scheduler synthesizes instead of executing
// follow from them.
func goldenFacts(w *workload) (map[isa.Platform]*goldenHits, error) {
	out := map[isa.Platform]*goldenHits{}
	for _, p := range w.platforms {
		sys, _, _, err := redriveSetup(p, 1, nil)
		if err != nil {
			return nil, err
		}
		if out[p], err = traceGolden(sys.Machine); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// synthesizedRow reports whether the scheduler produced row without running
// the guest: a code target the golden run never executes, or a mid-run
// trigger at or past the golden run's end.
func synthesizedRow(row inject.Result, g *goldenHits) bool {
	t := row.Target
	if t.Campaign == inject.CampCode {
		_, hit := g.first[t.Addr]
		return !hit
	}
	return t.Delay > 0 && t.Delay >= g.cycles
}

// executedCycles sums RunCycles over the rows of a round that were executed.
func executedCycles(r *roundOut, hits map[isa.Platform]*goldenHits) uint64 {
	var n uint64
	for _, c := range r.camps {
		for _, row := range c.rows {
			if !synthesizedRow(row, hits[c.header.Platform]) {
				n += row.RunCycles
			}
		}
	}
	return n
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
