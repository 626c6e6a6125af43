package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/cc"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
	guest "kfi/internal/workload"
)

// Metric-name tags for campaigns and outcomes.
var (
	kindTag = map[inject.Campaign]string{
		inject.CampStack: "stack", inject.CampSysReg: "sysreg",
		inject.CampData: "data", inject.CampCode: "code",
	}
	outcomeTag = map[inject.Outcome]string{
		inject.ONotActivated: "not_activated", inject.ONotManifested: "not_manifested",
		inject.OFailSilence: "fsv", inject.OCrash: "crash",
		inject.OHangUnknown: "hang", inject.ODetected: "detected",
		inject.OQuarantined: "quarantined",
	}
)

// redrive runs one round again through the layers' public calls instead of
// core.Run: it builds the same systems, then plans and executes every
// campaign on node 0 with its own fork-from-golden loop (first-hit trace,
// snapshot chain, injection, journal). With a tracer it records a span
// around every call into a layer and the counts each call returns; with a
// nil tracer it is the untraced reference the traced run is compared with.
func redrive(w *workload, seed int64, dir string, tr *tracer) (*roundOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &roundOut{seed: seed, camps: map[string]*campOut{}}
	start := time.Now()
	root := tr.begin("round")
	for _, p := range w.platforms {
		t0 := time.Now()
		sys, golden, prof, err := redriveSetup(p, w.nodes(), tr)
		if err != nil {
			return nil, fmt.Errorf("setup %v: %w", p, err)
		}
		t1 := time.Now()
		out.setupS += t1.Sub(t0).Seconds()
		for _, c := range w.campaigns {
			spec := campaign.Spec{Campaign: c, N: w.count(p, c), Seed: core.SpecSeed(seed, p, c)}
			co, err := redriveCampaign(sys, golden, prof, spec, core.JournalPath(dir, p, c), tr)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", campKey(p, c), seed, err)
			}
			k := campKey(p, c)
			out.keys = append(out.keys, k)
			out.camps[k] = co
		}
		out.campaignS += time.Since(t1).Seconds()
	}
	tr.end(root)
	out.wallS = time.Since(start).Seconds()
	return out, nil
}

// redriveSetup builds a platform's systems as campaign.NewFarm does (one
// workload compile, one kernel build per node, golden run and profile on
// node 0) and returns node 0.
func redriveSetup(p isa.Platform, nodes int, tr *tracer) (*kernel.System, uint32, *campaign.Profile, error) {
	s := tr.begin("cc.compile")
	uimg, err := cc.Compile(guest.Program(1), p, kernel.UserBases)
	tr.end(s)
	if err != nil {
		return nil, 0, nil, err
	}
	var node0 *kernel.System
	for i := 0; i < nodes; i++ {
		s = tr.begin("kernel.build")
		sys, err := kernel.BuildSystem(p, uimg, guest.StandardProcs(), kernel.Options{})
		tr.end(s)
		if err != nil {
			return nil, 0, nil, err
		}
		if node0 == nil {
			node0 = sys
		}
	}
	s = tr.begin("campaign.golden")
	golden, err := campaign.Golden(node0)
	tr.end(s)
	if err != nil {
		return nil, 0, nil, err
	}
	s = tr.begin("campaign.profile")
	prof, err := campaign.ProfileKernel(node0)
	tr.end(s)
	if err != nil {
		return nil, 0, nil, err
	}
	return node0, golden, prof, nil
}

// goldenHits is one traced golden run: the cycle count just before each PC
// first executes, and the run's completion.
type goldenHits struct {
	first    map[uint32]uint64
	cycles   uint64
	checksum uint32
}

// traceGolden records the first-hit cycle of every executed PC, the cycle at
// which a code breakpoint on that address fires.
func traceGolden(m *machine.Machine) (*goldenHits, error) {
	m.Reboot()
	clk := m.Core().Clock()
	first := make(map[uint32]uint64, 1<<14)
	m.Core().SetTrace(func(pc uint32, cost uint8) {
		if _, ok := first[pc]; !ok {
			first[pc] = clk.Cycles() - uint64(cost)
		}
	})
	res := m.Run()
	m.Core().SetTrace(nil)
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("traced golden run did not complete: %v", res.Outcome)
	}
	return &goldenHits{first: first, cycles: res.Cycles, checksum: res.Checksum}, nil
}

// notActivated is the row of an error that is never injected: the run is
// the golden run.
func notActivated(t inject.Target, cycles uint64, checksum uint32) inject.Result {
	return inject.Result{Target: t, ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome: inject.ONotActivated, RunCycles: cycles, Checksum: checksum}
}

type trig struct {
	at  uint64
	idx int
}

// redriveCampaign plans and runs one campaign on sys through the layer
// calls, journaling every row to path.
func redriveCampaign(sys *kernel.System, golden uint32, prof *campaign.Profile,
	spec campaign.Spec, path string, tr *tracer) (*campOut, error) {
	m := sys.Machine
	kind := kindTag[spec.Campaign]
	campStart := time.Now()
	if err := m.SetEngine(0); err != nil {
		return nil, err
	}
	m.Engine().ResetStats()

	s := tr.begin("journal.open")
	h := campaign.HeaderFor(sys.Platform, golden, spec)
	j, err := campaign.CreateJournal(path, h)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer j.Close() // error paths only; the success path checks Close below

	s = tr.begin("campaign.targets")
	targets, err := campaign.NewGenerator(sys, prof, spec.Seed, prof.Total*2).Targets(spec)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	co := &campOut{header: h, rows: make([]inject.Result, len(targets)),
		synthesized: make([]bool, len(targets))}
	appendRow := func(idx int) error {
		s := tr.begin("journal.append")
		err := j.Append(idx, co.rows[idx])
		tr.end(s)
		tr.add("journal.appends", 1)
		return err
	}

	// Plan: trigger cycles in ascending order; code targets whose address
	// the golden run never executes are synthesized up front.
	var hits *goldenHits
	for _, t := range targets {
		if t.Campaign == inject.CampCode {
			s = tr.begin("campaign.trace_golden")
			hits, err = traceGolden(m)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			break
		}
	}
	var order []trig
	var pre []int
	for i, t := range targets {
		switch {
		case t.Delay > 0:
			order = append(order, trig{t.Delay, i})
		case t.Campaign == inject.CampCode:
			c, ok := hits.first[t.Addr]
			if !ok {
				co.rows[i] = notActivated(t, hits.cycles, hits.checksum)
				co.synthesized[i] = true
				pre = append(pre, i)
				continue
			}
			order = append(order, trig{c, i})
		default:
			order = append(order, trig{0, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].at < order[b].at })
	tr.add("campaign.pre_count", float64(len(pre)))
	for _, i := range pre {
		if err := appendRow(i); err != nil {
			return nil, err
		}
	}

	// Execute: one snapshot chain along the golden prefix.
	var (
		snap      *snapshot.Snapshot
		goldenEnd *machine.RunResult
	)
	for _, o := range order {
		t := targets[o.idx]
		if goldenEnd != nil && o.at > goldenEnd.Cycles {
			co.rows[o.idx] = notActivated(t, goldenEnd.Cycles, goldenEnd.Checksum)
			co.synthesized[o.idx] = true
			if err := appendRow(o.idx); err != nil {
				return nil, err
			}
			continue
		}
		if snap == nil || o.at < snap.Cycles {
			// First use, or a trigger behind the chain (the previous advance
			// paused past it): restart the chain from boot, as the campaign
			// driver does.
			s = tr.begin("snapshot.capture")
			m.Reboot()
			snap = snapshot.Capture(m)
			tr.end(s)
		}
		s = tr.begin("snapshot.restore")
		pages, err := snap.Restore(m)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tr.add("snapshot.restore_pages", float64(pages))
		if o.at > snap.Cycles {
			from := snap.Cycles
			m.PauseAt = o.at
			s = tr.begin("machine.advance")
			res := m.Run()
			tr.end(s)
			tr.add("machine.advance_cycles", float64(res.Cycles-from))
			if res.Outcome != machine.OutPaused {
				goldenEnd = &res
				co.rows[o.idx] = notActivated(t, res.Cycles, res.Checksum)
				co.synthesized[o.idx] = true
				if err := appendRow(o.idx); err != nil {
					return nil, err
				}
				continue
			}
			s = tr.begin("snapshot.recapture")
			pages, err := snap.Recapture(m)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			tr.add("snapshot.recapture_pages", float64(pages))
		}
		from := m.Core().Clock().Cycles()
		s = tr.begin("inject.run")
		row := inject.RunFrom(sys, t, golden)
		d := tr.end(s)
		co.rows[o.idx] = row
		if tr != nil {
			cyc := float64(row.RunCycles - from)
			oc := outcomeTag[row.Outcome]
			tr.add("inject.run_cycles", cyc)
			tr.add("inject.s."+oc, d)
			tr.add("inject.cycles."+oc, cyc)
			tr.injectMs = append(tr.injectMs, d*1e3)
			tr.add("mem.dirty_pages", float64(m.Mem.DirtyPages()))
		}
		if err := appendRow(o.idx); err != nil {
			return nil, err
		}
	}
	if snap != nil {
		m.Mem.ClearBaseline()
	}
	co.engine = m.Engine().Stats()
	s = tr.begin("journal.close")
	err = j.Close()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for _, row := range co.rows {
			tr.add("inject.count."+outcomeTag[row.Outcome], 1)
			tr.add("count."+kind, 1)
		}
		tr.add("campaign_s."+kind, time.Since(campStart).Seconds())
	}
	return co, nil
}
