package campaign

import (
	"errors"
	"fmt"
	"sync"

	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/platform"
	"kfi/internal/workload"
)

// Farm is a set of identical guest systems and the one campaign driver that
// runs on them — the paper's setup of "three P4 and two G4 machines ... used
// in the injection campaigns to speed up the experiments". A single machine
// is a farm of one: RunWith, NodeRunner and RunHardenStudy all build, plan
// and execute through a Farm. Every node is built from the same images, so
// results are the union of deterministic per-node runs.
type Farm struct {
	platform isa.Platform
	nodes    []*kernel.System
	golden   uint32
	// cycles is the golden run's length.
	cycles  uint64
	profile *Profile
	// buildNode rebuilds a guest system from the farm's retained build
	// inputs; it backs node failover and watchdog respawns. It is nil for
	// the farm of one around a caller-owned system (RunWith), which has
	// nothing to rebuild from.
	buildNode func() (*kernel.System, error)

	// Test hooks (nil in production).
	//
	// injectHook wraps every injection attempt (run is the fork-from-golden
	// RunFrom or the replay-mode RunOne) so tests can seed panics and hangs;
	// fault simulates SIGKILL-style node loss (a non-nil error for (node,
	// idx) kills that node before the attempt runs — replacement nodes carry
	// fresh ids, so a hook keyed on original ids fires at most once per
	// node).
	injectHook func(idx int, run func() inject.Result) inject.Result
	fault      func(node, idx int) error
}

// NewFarm builds n identical guest systems of the given platform from one
// workload compile, and measures the golden run and the kernel profile once,
// on node 0. opts may be zero; the workload runs at the given scale.
func NewFarm(platform isa.Platform, n, scale int, opts kernel.Options) (*Farm, error) {
	uimg, err := cc.Compile(workload.Program(max(scale, 1)), platform, kernel.UserBases)
	if err != nil {
		return nil, fmt.Errorf("campaign: farm workload: %w", err)
	}
	f := &Farm{platform: platform, buildNode: func() (*kernel.System, error) {
		return kernel.BuildSystem(platform, uimg, workload.StandardProcs(), opts)
	}}
	for i := 0; i < max(n, 1); i++ {
		sys, err := f.buildNode()
		if err != nil {
			return nil, fmt.Errorf("campaign: farm node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, sys)
	}
	res := f.nodes[0].Run()
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("campaign: golden run did not complete: %v", res.Outcome)
	}
	f.golden, f.cycles = res.Checksum, res.Cycles
	if f.profile, err = ProfileKernel(f.nodes[0]); err != nil {
		return nil, err
	}
	return f, nil
}

// Nodes returns the number of guest systems.
func (f *Farm) Nodes() int { return len(f.nodes) }

// Golden returns the fault-free checksum shared by all nodes.
func (f *Farm) Golden() uint32 { return f.golden }

// Profile returns the kernel-usage profile measured on node 0.
func (f *Farm) Profile() *Profile { return f.profile }

// Run executes a campaign, fanning targets out over the nodes. Results come
// back in target order regardless of which node executed them, so a Farm run
// produces the same per-index results as a single-node run of the same spec.
// It uses the default execution options (fork-from-golden); see RunWith.
func (f *Farm) Run(spec Spec, progress func(done, total int)) (*Result, error) {
	return f.RunWith(spec, progress, ExecOptions{})
}

// RunWith executes a campaign on a caller-owned system with explicit
// execution options: the system runs as a farm of one. It cannot be
// replaced, so a watchdog timeout is an error here rather than a respawn.
func RunWith(sys *kernel.System, golden uint32, profile *Profile, spec Spec,
	progress func(done, total int), opts ExecOptions) (*Result, error) {
	f := &Farm{platform: sys.Platform, nodes: []*kernel.System{sys}, golden: golden, profile: profile}
	return f.RunWith(spec, progress, opts)
}

// RunWith is Run with explicit execution options. Nodes steal small
// contiguous chunks of the plan's trigger-sorted order from a shared queue,
// so neighboring triggers still share incremental checkpoints within a node
// while a node that draws long-latency hangs cannot straggle with a large
// fixed share.
//
// The farm survives its own nodes: a node whose runner dies permanently has
// its unfinished chunk requeued and a replacement node spawned from the
// retained build inputs (up to a respawn budget), so a campaign's outcome
// table is identical with and without mid-run node loss.
func (f *Farm) RunWith(spec Spec, progress func(done, total int), opts ExecOptions) (*Result, error) {
	for _, sys := range f.nodes {
		if err := sys.Machine.SetEngine(opts.Engine); err != nil {
			return nil, err
		}
		sys.Machine.Engine().ResetStats()
	}
	p, err := f.plan(spec, nil, opts)
	if err != nil {
		return nil, err
	}
	return f.drive(p, spec, progress, opts)
}

// Plan is a campaign's deterministic execution plan: the pre-generated
// targets, the trigger-sorted execution order (target indices), and the
// results synthesized without execution (code targets whose instruction the
// golden run never reaches, and pruned inert flips). Two farms of the same
// platform and scale produce identical Plans for the same spec — target
// generation is seeded and the guest is deterministic — which is what lets a
// coordinator plan a campaign that remote workers re-derive independently.
type Plan struct {
	Targets []inject.Target
	// Order lists the target indices that actually execute, sorted by
	// trigger cycle (the order a snapshot chain wants them in).
	Order []int
	// Pre maps target indices to synthesized results; they are complete
	// without running anything.
	Pre map[int]inject.Result

	// order backs Order with the trigger cycles, so executing a subset
	// never re-traces the golden run.
	order []trigOrder
	sense *sensePass
	secs  *sectionSet
}

// plan is the planning step every driver shares: generate the spec's
// targets (unless given), classify them statically, order them by trigger
// cycle, synthesize the rows that need no execution, and open the section
// cache. Replay mode plans every target in index order at trigger 0.
func (f *Farm) plan(spec Spec, targets []inject.Target, opts ExecOptions) (*Plan, error) {
	if opts.Replay && opts.SectionCache != "" {
		return nil, fmt.Errorf("campaign: SectionCache requires the fork-from-golden scheduler; replay mode never traces the golden run the cache keys fingerprint")
	}
	sys := f.nodes[0]
	var err error
	if targets == nil {
		gen := NewGenerator(sys, f.profile, spec.Seed, profileCycles(f.profile))
		if targets, err = gen.Targets(spec); err != nil {
			return nil, err
		}
	}
	p := &Plan{Targets: targets}
	if p.sense, err = buildSense(sys, targets, opts); err != nil {
		return nil, err
	}
	sched, err := buildSchedule(sys, targets, opts)
	if err != nil {
		return nil, err
	}
	prunePre(sched, targets, p.sense, opts)
	if p.secs, err = openSectionCache(sys, f.golden, spec, targets, sched, opts); err != nil {
		return nil, err
	}
	p.Pre, p.order = sched.pre, sched.order
	p.Order = make([]int, len(sched.order))
	for i, o := range sched.order {
		p.Order[i] = o.idx
	}
	return p, nil
}

// eachPre calls fn for every synthesized result in ascending index order,
// so journals and progress see the same sequence on every run.
func (p *Plan) eachPre(fn func(idx int, r inject.Result) error) error {
	for i := range p.Targets {
		if r, ok := p.Pre[i]; ok {
			if err := fn(i, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// stealQueue is the farm's shared work source: a cursor over the trigger-
// sorted order handing out small contiguous chunks, plus a requeue list fed
// by node failover. Requeued slices are served first — they carry the
// lowest triggers, and the runner that picks one up restarts its snapshot
// chain for them.
type stealQueue struct {
	mu       sync.Mutex
	order    []trigOrder
	next     int
	chunk    int
	requeued [][]trigOrder
	stopped  bool
}

// pop hands out the next unit of work: a requeued remnant if any, else the
// next fresh chunk. false means the queue is drained or stopped.
func (q *stealQueue) pop() ([]trigOrder, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return nil, false
	}
	if len(q.requeued) > 0 {
		s := q.requeued[0]
		q.requeued = q.requeued[1:]
		return s, true
	}
	if q.next >= len(q.order) {
		return nil, false
	}
	lo := q.next
	q.next += q.chunk
	return q.order[lo:min(lo+q.chunk, len(q.order))], true
}

// requeue returns a dead node's unfinished slice to the queue.
func (q *stealQueue) requeue(rem []trigOrder) {
	if len(rem) == 0 {
		return
	}
	q.mu.Lock()
	q.requeued = append(q.requeued, rem)
	q.mu.Unlock()
}

// stop drains the queue so every worker winds down after a fatal error.
func (q *stealQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
}

// workerPanic carries a panic out of a node goroutine (a progress callback
// that panics) so the driver can re-raise it in the caller's goroutine once
// every node has wound down.
type workerPanic struct{ v any }

func (p workerPanic) Error() string { return fmt.Sprintf("campaign: node panicked: %v", p.v) }

// drive executes a plan on the farm's nodes; it is the one driver behind
// RunWith, Farm.RunWith and RunHardenStudy. Resumed, cache-restored and
// synthesized rows complete first (the synthesized ones in index order), then
// one worker per node runs stolen chunks of the remaining order while a
// supervisor respawns replacements for lost nodes.
func (f *Farm) drive(p *Plan, spec Spec, progress func(done, total int), opts ExecOptions) (*Result, error) {
	results := make([]inject.Result, len(p.Targets))
	rec := &recorder{journal: opts.Journal, progress: progress, results: results,
		sense: p.sense, markCached: opts.SectionCache != ""}
	skip, err := applyCompleted(rec, opts)
	if err != nil {
		return nil, err
	}
	if err := p.secs.restore(rec, skip); err != nil {
		return nil, err
	}
	err = p.eachPre(func(i int, r inject.Result) error {
		if skip[i] {
			return nil
		}
		results[i] = r
		return rec.complete(i, true)
	})
	if err != nil {
		return nil, err
	}
	done := func(idx int) error { return rec.complete(idx, true) }

	// Small chunks keep the shared queue a cheap load balancer; several per
	// node bound the straggler cost of an unlucky chunk to ~1/8 of a node's
	// fair share. Each node keeps one snapshot chain across all the chunks
	// it steals: the queue hands fresh chunks out in ascending trigger
	// order, so a node's checkpoint only ever advances forward (requeued
	// failover remnants are the exception; the runner restarts its chain).
	order := filterOrder(p.order, skip)
	q := &stealQueue{order: order, chunk: max(len(order)/(len(f.nodes)*8), 1)}

	// Engine counters are summed across every node's engine when its worker
	// winds down (systems poisoned by a watchdog lose their tally; the
	// counters are observability, never correctness).
	var (
		esMu   sync.Mutex
		estats platform.EngineStats
	)
	respawn := f.respawnWith(opts.Engine)
	worker := func(node int, sys *kernel.System) error {
		runner := newChunkRunner(sys, f.golden, p.Targets, opts, maxTrig(p.order))
		runner.respawn = respawn
		runner.hook = f.injectHook
		if f.fault != nil {
			runner.fault = func(idx int) error { return f.fault(node, idx) }
		}
		defer func() {
			runner.close()
			if node < len(f.nodes) {
				f.nodes[node] = runner.st.sys // a watchdog respawn replaced it
			}
			esMu.Lock()
			estats.Add(runner.st.sys.Machine.Engine().Stats())
			esMu.Unlock()
		}()
		for {
			slice, ok := q.pop()
			if !ok {
				return nil
			}
			if err := runner.run(slice, results, done); err != nil {
				var nl *nodeLostError
				if errors.As(err, &nl) {
					q.requeue(nl.remaining)
				} else {
					q.stop()
				}
				return err
			}
		}
	}

	// Supervisor: run one worker per node, respawn replacements for lost
	// nodes (fresh ids beyond the original node range) until the respawn
	// budget is spent, and surface the first fatal error.
	ch := make(chan error, len(f.nodes))
	live := 0
	start := func(id int, sys *kernel.System) {
		live++
		go func() {
			defer func() {
				if v := recover(); v != nil {
					ch <- workerPanic{v}
				}
			}()
			ch <- worker(id, sys)
		}()
	}
	for ni, sys := range f.nodes {
		start(ni, sys)
	}
	nextID := len(f.nodes)
	respawns := 2 * len(f.nodes)
	var fatal error
	for live > 0 {
		err := <-ch
		live--
		var nl *nodeLostError
		switch {
		case err == nil || fatal != nil:
			continue
		case !errors.As(err, &nl):
			fatal = err
		case respawn == nil || respawns <= 0:
			fatal = fmt.Errorf("campaign: node respawn budget exhausted: %w", err)
		default:
			respawns--
			sys, berr := respawn()
			if berr != nil {
				fatal = fmt.Errorf("campaign: spawning replacement node: %w", berr)
				break
			}
			start(nextID, sys)
			nextID++
			continue
		}
		q.stop()
	}
	if wp, ok := fatal.(workerPanic); ok {
		panic(wp.v)
	}
	if fatal != nil {
		return nil, fatal
	}
	if err := p.secs.store(results); err != nil {
		return nil, err
	}
	return &Result{Spec: spec, Platform: f.platform, Results: results,
		Engine: f.nodes[0].Machine.EngineKind(), EngineStats: estats}, nil
}

// respawnWith returns the builder of replacement nodes configured like the
// campaign's original nodes — the execution engine is reapplied, so a
// respawn cannot silently fall back to the platform default — or nil when
// the farm has nothing to rebuild from.
func (f *Farm) respawnWith(engine platform.EngineKind) func() (*kernel.System, error) {
	if f.buildNode == nil {
		return nil
	}
	return func() (*kernel.System, error) {
		sys, err := f.buildNode()
		if err != nil {
			return nil, err
		}
		if err := sys.Machine.SetEngine(engine); err != nil {
			return nil, err
		}
		return sys, nil
	}
}
