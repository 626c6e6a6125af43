package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/platform"
	"kfi/internal/snapshot"
)

// ExecOptions select how a campaign executes its injections.
//
// The zero value is the fork-from-golden mode (the fast path): the golden
// prefix up to each injection's trigger point is executed once, checkpointed
// with internal/snapshot, and every experiment sharing that prefix is
// restore-inject-resumed in O(dirty pages). Outcomes are identical to replay
// mode — the restored state is cycle-exact — only wall-clock time changes.
type ExecOptions struct {
	// Replay forces the paper's literal procedure: reboot and replay from
	// boot for every injection (the reference mode the equivalence tests and
	// benchmarks compare against).
	Replay bool
	// Engine selects the execution engine the guest runs on (step
	// interpreter, predecoded interpreter, or the basic-block translator —
	// see internal/platform.EngineKind). The zero value is the platform
	// default. Outcomes are engine-invariant — the equivalence tests pin
	// campaign tables and journals byte-identical across engines — so the
	// choice only changes wall-clock time.
	Engine platform.EngineKind

	// SnapshotDir, when set, persists golden-prefix waypoint snapshots there
	// and reuses any compatible ones from earlier invocations (files are
	// keyed by a fingerprint of the platform, configuration, and boot image).
	SnapshotDir string

	// Journal, when set, durably records every completed outcome (one
	// append-only record per injection) as the campaign runs, so a killed
	// process can resume instead of restarting from zero.
	Journal *Journal
	// Completed maps target indices to already-journaled outcomes from an
	// interrupted run of the same campaign: their injections are skipped and
	// the recorded results used verbatim, so a resumed campaign continues
	// bit-identically where it left off.
	Completed map[int]inject.Result

	// Sense runs the static error-sensitivity pre-pass (internal/staticsense)
	// over the campaign's code targets and annotates every result with the
	// analyzer's predicted class (inject.Result.PredClass/PredInert), feeding
	// the predicted-vs-observed confusion matrix without changing which
	// injections execute.
	Sense bool
	// Prune implies Sense and additionally skips injections the analyzer
	// predicts inert: their results are synthesized from the traced golden
	// run (outcome not-manifested, golden checksum and cycle count) and
	// journaled with PredSkipped set. Requires the fork-from-golden
	// scheduler — combining Prune with Replay is an error, because replay
	// mode never traces the golden run the synthesized results come from.
	Prune bool

	// SectionCache, when set, is the directory of the per-section outcome
	// cache (FastFlip-style incremental campaigns). Targets are grouped into
	// sections — code targets by the containing kernel function, every other
	// campaign into one whole-image section — and each section's completed
	// rows are persisted keyed by a content hash of the section's compiled
	// bytes, its target list (triggers included), the campaign parameters,
	// and the traced golden run's fingerprint. A re-run whose section hashes
	// all match replays every row from the cache; a run with one modified
	// section re-executes only that section. Rows are stamped with
	// inject.Result.PredCached on cold and warm runs alike, so warm tables
	// and journals stay byte-identical to the cold run that filled the
	// cache. Requires the fork-from-golden scheduler (incompatible with
	// Replay, which never traces the golden run the keys fingerprint).
	SectionCache string
	// onSection, when set (tests), observes each section's cache decision.
	onSection func(name string, hit bool)

	// MaxAttempts bounds supervised attempts per injection before its
	// outcome is recorded as inject.OQuarantined (0 = default 3).
	MaxAttempts int
	// InjectionTimeout is the per-attempt wall-clock watchdog. An attempt
	// that exceeds it is abandoned and retried on a node rebuilt from the
	// farm's build inputs (RunWith on a caller-owned system cannot rebuild
	// it and reports an error). 0 = default 2m; negative disables the
	// watchdog.
	InjectionTimeout time.Duration
	// RetryBackoff is the delay before the first retry; it doubles with
	// every further attempt (0 = default 2ms).
	RetryBackoff time.Duration
}

// recorder serializes campaign completion accounting: the monotone progress
// count and the journal appends, shared by every node goroutine.
type recorder struct {
	mu       sync.Mutex
	journal  *Journal
	progress func(done, total int)
	results  []inject.Result
	// sense, when set, annotates every completed result with its static
	// prediction before the journal append, so predictions are durable
	// alongside outcomes.
	sense *sensePass
	// markCached stamps PredCached on every completed result (section-cache
	// runs): the marker records cache membership, not a hit, so cold and
	// warm runs journal identical rows.
	markCached bool
	done       int
}

// complete records results[idx] as finished. Resumed outcomes replayed from
// the journal pass journal=false — they are already durable.
func (rc *recorder) complete(idx int, journal bool) error {
	rc.mu.Lock()
	rc.done++
	d := rc.done
	if rc.markCached {
		rc.results[idx].PredCached = true
	}
	rc.sense.annotate(idx, &rc.results[idx])
	var err error
	if journal && rc.journal != nil {
		err = rc.journal.Append(idx, rc.results[idx])
	}
	rc.mu.Unlock()
	if err != nil {
		return err
	}
	if rc.progress != nil {
		rc.progress(d, len(rc.results))
	}
	return nil
}

// applyCompleted fills results from the resume set and returns the skip
// mask. The recorded outcomes count toward progress but are not re-journaled.
func applyCompleted(rc *recorder, opts ExecOptions) ([]bool, error) {
	skip := make([]bool, len(rc.results))
	for i := range rc.results {
		if r, ok := opts.Completed[i]; ok {
			rc.results[i] = r
			skip[i] = true
			if err := rc.complete(i, false); err != nil {
				return nil, err
			}
		}
	}
	return skip, nil
}

// filterOrder drops already-completed entries from a trigger-sorted order.
func filterOrder(order []trigOrder, skip []bool) []trigOrder {
	out := make([]trigOrder, 0, len(order))
	for _, o := range order {
		if !skip[o.idx] {
			out = append(out, o)
		}
	}
	return out
}

// trigOrder pairs a target index with its trigger cycle (the golden-run cycle
// count just before the injection acts).
type trigOrder struct {
	trig uint64
	idx  int
}

// goldenTrace is one traced golden run: the first cycle at which each PC is
// about to execute, plus the run's length and checksum.
type goldenTrace struct {
	firstHit map[uint32]uint64
	cycles   uint64
	checksum uint32
}

// traceGolden runs the benchmark once with tracing and records, per PC, the
// cycle count just before its first execution — the exact cycle at which a
// code-injection breakpoint on that address would fire.
func traceGolden(sys *kernel.System) (*goldenTrace, error) {
	m := sys.Machine
	m.Reboot()
	clk := m.Core().Clock()
	first := make(map[uint32]uint64, 1<<14)
	m.Core().SetTrace(func(pc uint32, cost uint8) {
		if _, ok := first[pc]; !ok {
			// Trace reports after the clock advanced past the instruction.
			first[pc] = clk.Cycles() - uint64(cost)
		}
	})
	res := m.Run()
	m.Core().SetTrace(nil)
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("campaign: traced golden run did not complete: %v", res.Outcome)
	}
	return &goldenTrace{firstHit: first, cycles: res.Cycles, checksum: res.Checksum}, nil
}

// schedule is the fork-from-golden plan for one target set: the trigger-
// sorted execution order plus results synthesized without running anything
// (code targets whose instruction the golden run never executes — their
// breakpoint can never fire, so the run is the golden run).
type schedule struct {
	order []trigOrder
	pre   map[int]inject.Result
	// golden is the traced golden run the schedule was built from (nil when
	// the target set has no code targets); pruning synthesizes skipped
	// results from it.
	golden *goldenTrace
}

// buildSchedule computes each target's trigger cycle and sorts targets by
// it. Delay-triggered targets (stack, system registers) use their Delay;
// code targets use the first golden-run execution of their address;
// everything else injects at boot (trigger 0). Replay mode keeps index
// order at trigger 0. The golden run is traced when code targets need their
// trigger cycles, and also when the options prune or cache sections — both
// synthesize rows from the golden outcome.
func buildSchedule(sys *kernel.System, targets []inject.Target, opts ExecOptions) (*schedule, error) {
	s := &schedule{order: make([]trigOrder, 0, len(targets)), pre: map[int]inject.Result{}}
	if opts.Replay {
		// Every injection reboots: index order, nothing to trace.
		for i := range targets {
			s.order = append(s.order, trigOrder{0, i})
		}
		return s, nil
	}
	needGolden := opts.Prune || opts.SectionCache != ""
	for _, t := range targets {
		if t.Campaign == inject.CampCode {
			needGolden = true
			break
		}
	}
	if needGolden {
		var err error
		if s.golden, err = traceGolden(sys); err != nil {
			return nil, err
		}
	}
	tr := s.golden
	for i, t := range targets {
		switch {
		case t.Delay > 0:
			s.order = append(s.order, trigOrder{t.Delay, i})
		case t.Campaign == inject.CampCode:
			c, ok := tr.firstHit[t.Addr]
			if !ok {
				s.pre[i] = notActivatedResult(t, tr.cycles, tr.checksum)
				continue
			}
			s.order = append(s.order, trigOrder{c, i})
		default:
			s.order = append(s.order, trigOrder{0, i})
		}
	}
	sort.SliceStable(s.order, func(a, b int) bool { return s.order[a].trig < s.order[b].trig })
	return s, nil
}

// maxTrig returns the last (largest) trigger of a trigger-sorted order.
func maxTrig(order []trigOrder) uint64 {
	if len(order) == 0 {
		return 0
	}
	return order[len(order)-1].trig
}

// notActivatedResult mirrors RunOne's early return for an error that was
// never injected: the run is the golden run.
func notActivatedResult(t inject.Target, cycles uint64, checksum uint32) inject.Result {
	return inject.Result{Target: t, ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome: inject.ONotActivated, RunCycles: cycles, Checksum: checksum}
}

// nodeState is the machine-owning half of a chunkRunner: the guest system,
// its snapshot chain, and everything else a supervised attempt may mutate.
// When a wall-clock watchdog abandons an attempt, the goroutine it leaks
// still owns this state, so the runner replaces the whole nodeState rather
// than reusing any part of it.
type nodeState struct {
	sys  *kernel.System
	way  *waypointStore
	snap *snapshot.Snapshot
	// goldenEnd, once set, is the golden run's completion as observed from a
	// trigger beyond its end; every later trigger is also beyond the end.
	goldenEnd *machine.RunResult
}

// chunkRunner executes trigger-sorted slices of a schedule on one system,
// chaining one incremental checkpoint along the golden prefix:
//
//	for each target (by ascending trigger):
//	    restore the checkpoint             — O(pages dirtied by the last run)
//	    advance golden to the trigger      — only forward, each cycle once
//	    re-checkpoint in place             — O(pages dirtied by the advance)
//	    inject and run to an outcome
//
// Because the machine's pause points are the deterministic loop-top cycle
// counts of the golden run, a checkpoint taken at the pause for trigger T is
// bit-identical to the state a from-boot replay pauses in for any trigger in
// (T, pause], and advancing from it reproduces the from-boot pause for later
// triggers. Outcomes therefore match replay mode exactly.
//
// The runner is stateful so a farm node can execute many chunks with one
// snapshot chain: as long as successive chunks carry non-decreasing triggers
// (the dynamic scheduler hands chunks out in global trigger order), the
// checkpoint only ever advances forward and the invariant above holds across
// chunk boundaries. A chunk requeued by node failover can carry triggers
// below the chain position; the runner then restarts its chain from boot (or
// the best persisted waypoint), which reproduces the same deterministic
// pause states.
//
// In replay mode each attempt instead reboots and replays from boot
// (inject.RunOne) and keeps no chain. Either way every injection is executed
// under the one supervision policy (panic isolation, wall-clock watchdog,
// retry with backoff, quarantine) — see supervise.go.
type chunkRunner struct {
	st      *nodeState
	golden  uint32
	targets []inject.Target
	opts    ExecOptions
	maxTrig uint64
	sup     supervision

	// respawn, when set (farm nodes), builds a replacement guest system
	// after a watchdog timeout poisoned the current one.
	respawn func() (*kernel.System, error)
	// hook, when set (tests), wraps each injection step to seed panics and
	// hangs.
	hook func(idx int, run func() inject.Result) inject.Result
	// fault, when set (tests), simulates SIGKILL-style node loss: a non-nil
	// error for a target index kills this node before the attempt runs.
	fault func(idx int) error
}

// newChunkRunner prepares a runner; maxTrig is the schedule's largest trigger
// (it sizes the waypoint stride). The snapshot chain starts lazily on the
// first attempt. Call close when done.
func newChunkRunner(sys *kernel.System, golden uint32, targets []inject.Target,
	opts ExecOptions, maxTrig uint64) *chunkRunner {
	return &chunkRunner{
		st:      &nodeState{sys: sys},
		golden:  golden,
		targets: targets,
		opts:    opts,
		maxTrig: maxTrig,
		sup:     opts.supervision(),
	}
}

func (r *chunkRunner) close() {
	if r.st.snap != nil {
		r.st.sys.Machine.Mem.ClearBaseline()
	}
}

// run executes one contiguous trigger-sorted slice of the schedule, writing
// each target's result to out[idx] and reporting completion via done. A
// permanently lost node surfaces as *nodeLostError carrying the unfinished
// remainder (including the in-flight entry) for the farm to requeue.
func (r *chunkRunner) run(order []trigOrder, out []inject.Result, done func(idx int) error) error {
	for k, o := range order {
		res, err := r.runTarget(o)
		if err != nil {
			if errors.Is(err, errNodeDown) {
				return &nodeLostError{remaining: order[k:], cause: err}
			}
			return err
		}
		out[o.idx] = res
		if err := done(o.idx); err != nil {
			return err
		}
	}
	return nil
}

// runTarget executes one scheduled injection under supervision: panics are
// retried from a fresh snapshot restore with exponential backoff, watchdog
// timeouts poison the machine and continue on a respawned one, and an
// injection that exhausts its attempt budget is quarantined rather than
// aborting the campaign.
func (r *chunkRunner) runTarget(o trigOrder) (inject.Result, error) {
	t := r.targets[o.idx]
	if r.fault != nil {
		if err := r.fault(o.idx); err != nil {
			return inject.Result{}, err
		}
	}
	if ge := r.st.goldenEnd; ge != nil && o.trig > ge.Cycles {
		return notActivatedResult(t, ge.Cycles, ge.Checksum), nil
	}
	var diag string
	for attempt := 1; ; attempt++ {
		// Pin the node state before the attempt goroutine launches: after a
		// timeout the abandoned goroutine keeps running against this state,
		// so the next attempt must see a replacement, never a shared one.
		st := r.st
		out, timedOut := superviseAttempt(r.sup.timeout, func() (inject.Result, error) {
			return r.attempt(st, o, t)
		})
		switch {
		case timedOut:
			diag = fmt.Sprintf("wall-clock watchdog (%v) exceeded", r.sup.timeout)
			if err := r.replaceNode(); err != nil {
				return inject.Result{}, err
			}
		case out.panicked:
			diag = out.diag
		case out.err != nil:
			// Harness infrastructure failed (snapshot restore, respawn):
			// not a per-injection condition, abort the run.
			return inject.Result{}, out.err
		default:
			return out.res, nil
		}
		if attempt >= r.sup.maxAttempts {
			return quarantinedResult(t, attempt, diag), nil
		}
		r.sup.sleep(r.sup.backoff << (attempt - 1))
	}
}

// replaceNode swaps in a fresh guest system after a watchdog timeout left
// the current machine to an abandoned goroutine. A caller-owned system
// (RunWith) has no build inputs to rebuild it from.
func (r *chunkRunner) replaceNode() error {
	if r.respawn == nil {
		return fmt.Errorf("campaign: injection exceeded the %v wall-clock watchdog; a caller-owned machine cannot be replaced (run through a Farm for automatic respawn)", r.sup.timeout)
	}
	sys, err := r.respawn()
	if err != nil {
		return fmt.Errorf("campaign: respawn after watchdog timeout: %w", err)
	}
	r.st = &nodeState{sys: sys}
	return nil
}

// attempt is one supervised execution of a scheduled target: ensure the
// snapshot chain covers the trigger, restore, advance, re-checkpoint, and
// inject. It mutates only st (pinned by the caller) so an abandoned attempt
// can never corrupt a successor's state.
func (r *chunkRunner) attempt(st *nodeState, o trigOrder, t inject.Target) (inject.Result, error) {
	if r.opts.Replay {
		// The paper's literal procedure: reboot and replay from boot.
		return r.injectStep(o.idx, func() inject.Result { return inject.RunOne(st.sys, t, r.golden) }), nil
	}
	m := st.sys.Machine
	if st.snap == nil || o.trig < st.snap.Cycles {
		// First use, or a requeued/retried trigger behind the chain: start
		// (or restart) the chain from the best persisted waypoint at or
		// before the trigger, else from boot. The restarted chain passes
		// through the same deterministic pause states, so outcomes are
		// unchanged.
		if r.opts.SnapshotDir != "" && st.way == nil {
			st.way = newWaypointStore(r.opts.SnapshotDir, snapshot.GoldenKey(m), r.maxTrig)
		}
		var snap *snapshot.Snapshot
		if st.way != nil {
			snap = st.way.bestBefore(o.trig, m)
		}
		if snap == nil {
			m.Reboot()
			snap = snapshot.Capture(m)
		}
		st.snap = snap
	}
	snap := st.snap
	if _, err := snap.Restore(m); err != nil {
		return inject.Result{}, err
	}
	if o.trig > snap.Cycles {
		m.PauseAt = o.trig
		pre := m.Run()
		if pre.Outcome != machine.OutPaused {
			// The benchmark finished before the trigger was reached: the
			// pre-generated error is never injected (RunOne's early
			// return), and so is every later, larger trigger.
			st.goldenEnd = &pre
			return notActivatedResult(t, pre.Cycles, pre.Checksum), nil
		}
		if _, err := snap.Recapture(m); err != nil {
			return inject.Result{}, err
		}
		if st.way != nil {
			st.way.maybeSave(snap)
		}
	}
	return r.injectStep(o.idx, func() inject.Result { return inject.RunFrom(st.sys, t, r.golden) }), nil
}

// injectStep runs one injection, through the test hook when one is set.
func (r *chunkRunner) injectStep(idx int, run func() inject.Result) inject.Result {
	if r.hook == nil {
		return run()
	}
	return r.hook(idx, run)
}

// waypointStore persists golden-prefix checkpoints under a directory, keyed
// by the machine's golden fingerprint, for reuse across invocations.
type waypointStore struct {
	dir       string
	key       string
	stride    uint64
	lastSaved uint64
}

func newWaypointStore(dir, key string, maxTrig uint64) *waypointStore {
	stride := maxTrig / 6
	if stride < 250_000 {
		stride = 250_000
	}
	return &waypointStore{dir: dir, key: key, stride: stride}
}

func (w *waypointStore) path(cycles uint64) string {
	// Zero-padded so lexical directory order is cycle order.
	return filepath.Join(w.dir, fmt.Sprintf("%s-c%020d.ksnap", w.key, cycles))
}

// bestBefore loads the latest stored waypoint at or before trig and installs
// it on the machine (full-image restore; it becomes the armed baseline).
// Corrupt or mismatched files are skipped. Returns nil when none usable.
func (w *waypointStore) bestBefore(trig uint64, m *machine.Machine) *snapshot.Snapshot {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil
	}
	var best uint64
	found := false
	prefix := w.key + "-c"
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ksnap") {
			continue
		}
		var c uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".ksnap"), "%d", &c); err != nil {
			continue
		}
		if c <= trig && (!found || c > best) {
			best, found = c, true
		}
	}
	if !found {
		return nil
	}
	snap, err := snapshot.Load(w.path(best))
	if err != nil || snap.Cycles != best {
		return nil
	}
	if _, err := snap.Restore(m); err != nil {
		return nil
	}
	w.lastSaved = best
	return snap
}

// maybeSave persists the checkpoint when it advanced at least a stride past
// the last saved waypoint. Failures are ignored: persistence is an
// optimization, never a correctness dependency.
func (w *waypointStore) maybeSave(s *snapshot.Snapshot) {
	if s.Cycles < w.lastSaved+w.stride {
		return
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return
	}
	if err := s.Save(w.path(s.Cycles)); err == nil {
		w.lastSaved = s.Cycles
	}
}
