package campaign

import (
	"fmt"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/platform"
)

// NodeRunner is the exported per-node execution seam: a farm of one, able to
// plan a campaign and execute arbitrary subsets of its targets. It plans
// with the same step and runs with the same node runner as a farm node, so
// the internal/ctlplane worker agent runs leased chunks exactly the way a
// farm node runs stolen chunks, and a distributed campaign's per-index
// results are identical to an in-process run of the same spec.
type NodeRunner struct {
	farm *Farm

	// runner persists one snapshot chain across successive RunIndices calls
	// against the same plan — the chain advances forward as long as leases
	// arrive in ascending trigger order, exactly like a farm node stealing
	// ascending chunks, and restarts itself for requeued earlier triggers.
	runner     *chunkRunner
	runnerPlan *Plan
	// engine is the execution engine of the last RunIndices call, reapplied
	// to post-watchdog replacement systems.
	engine platform.EngineKind
}

// NewNodeRunner builds a one-node farm of the given platform and workload
// scale: one guest system with its golden checksum and kernel profile.
func NewNodeRunner(platform isa.Platform, scale int, opts kernel.Options) (*NodeRunner, error) {
	f, err := NewFarm(platform, 1, scale, opts)
	if err != nil {
		return nil, err
	}
	return &NodeRunner{farm: f}, nil
}

// Platform returns the node's platform.
func (nr *NodeRunner) Platform() isa.Platform { return nr.farm.platform }

// Golden returns the fault-free benchmark checksum.
func (nr *NodeRunner) Golden() uint32 { return nr.farm.golden }

// Profile returns the measured kernel-usage profile.
func (nr *NodeRunner) Profile() *Profile { return nr.farm.profile }

// Plan generates the spec's targets and builds its trigger-sorted schedule.
// The golden-run trace it may require (code campaigns) runs once; every
// RunIndices call against the returned plan reuses it.
func (nr *NodeRunner) Plan(spec Spec) (*Plan, error) {
	return nr.farm.plan(spec, nil, ExecOptions{})
}

// RunIndices executes the plan's targets whose indices appear in want,
// calling each with every completed result. Execution follows the plan's
// trigger order regardless of the order of want, so the node's snapshot
// chain only ever advances forward; indices covered by the plan's Pre set
// are reported first, in ascending index order, without running. Results are
// identical to the same indices executed by Run, a Farm, or any other
// NodeRunner.
func (nr *NodeRunner) RunIndices(plan *Plan, want []int, opts ExecOptions,
	each func(idx int, res inject.Result) error) error {
	if err := nr.farm.nodes[0].Machine.SetEngine(opts.Engine); err != nil {
		return err
	}
	nr.engine = opts.Engine
	wanted := make(map[int]bool, len(want))
	for _, i := range want {
		if i < 0 || i >= len(plan.Targets) {
			return fmt.Errorf("campaign: index %d outside plan of %d targets", i, len(plan.Targets))
		}
		wanted[i] = true
	}
	err := plan.eachPre(func(idx int, r inject.Result) error {
		if !wanted[idx] {
			return nil
		}
		delete(wanted, idx)
		return each(idx, r)
	})
	if err != nil || len(wanted) == 0 {
		return err
	}
	order := make([]trigOrder, 0, len(wanted))
	for _, o := range plan.order {
		if wanted[o.idx] {
			order = append(order, o)
		}
	}
	if nr.runner == nil || nr.runnerPlan != plan {
		nr.Close()
		nr.runner = newChunkRunner(nr.farm.nodes[0], nr.farm.golden, plan.Targets, opts, maxTrig(plan.order))
		nr.runner.respawn = nr.respawn
		nr.runnerPlan = plan
	}
	results := make([]inject.Result, len(plan.Targets))
	return nr.runner.run(order, results, func(idx int) error { return each(idx, results[idx]) })
}

// respawn replaces the node's guest system after a watchdog timeout
// poisoned it, keeping the NodeRunner pointed at the replacement.
func (nr *NodeRunner) respawn() (*kernel.System, error) {
	sys, err := nr.farm.respawnWith(nr.engine)()
	if err != nil {
		return nil, err
	}
	nr.farm.nodes[0] = sys
	return sys, nil
}

// Close releases the node's snapshot-chain state. The NodeRunner remains
// usable; the next RunIndices starts a fresh chain.
func (nr *NodeRunner) Close() {
	if nr.runner != nil {
		nr.runner.close()
		nr.runner, nr.runnerPlan = nil, nil
	}
}
