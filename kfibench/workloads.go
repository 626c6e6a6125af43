package main

import (
	"fmt"
	"runtime"
	"strings"

	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
)

// workload is one benchmark input family. A run executes rounds of it; each
// round is one kfi-campaign invocation (setup, every campaign, journals) at
// a round seed derived from the run's --seed.
type workload struct {
	name string
	why  string
	// platforms and campaigns run in the CLI's order: platform-major, then
	// the paper's table order.
	platforms []isa.Platform
	campaigns []inject.Campaign
	// n is the per-campaign injection count; when zero, fraction scales the
	// paper's own campaign sizes (kfi-campaign -paper-fraction).
	n        int
	fraction float64
	// farm runs each platform on runtime.NumCPU() nodes (the CLI default);
	// otherwise on one node.
	farm bool
}

var workloads = []*workload{
	{
		name:      "data-g4",
		why:       "G4 data campaign on one node with a journal: every injection arms a data watchpoint at boot, so runs take the interpreter path and restores rewind whole runs",
		platforms: []isa.Platform{isa.RISC},
		campaigns: []inject.Campaign{inject.CampData},
		n:         48,
	},
	{
		name:      "study-mix",
		why:       "both platforms, all four campaigns in the paper's Table 5/6 proportions on a farm of nproc nodes with journals: the run that reproduces the tables",
		platforms: []isa.Platform{isa.CISC, isa.RISC},
		campaigns: core.Campaigns,
		fraction:  0.001,
		farm:      true,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// count is the injection count of one campaign, resolved as core.Run does.
func (w *workload) count(p isa.Platform, c inject.Campaign) int {
	if w.n > 0 {
		return w.n
	}
	return max(int(float64(core.PaperCounts[p][c])*w.fraction), 1)
}

// nodes is the number of guest systems per platform.
func (w *workload) nodes() int {
	if w.farm {
		return runtime.NumCPU()
	}
	return 1
}

// roundStride separates the round seeds of one run, so that the per-campaign
// seeds core.SpecSeed derives from them (base + 1000·campaign + platform)
// never collide between rounds.
const roundStride = 100_000

// roundSeed is the kfi-campaign -seed of round r of a run started with seed.
// Round 0 uses the run's seed itself.
func roundSeed(seed int64, r int) int64 { return seed + int64(r)*roundStride }

// command is the kfi-campaign invocation one round is equivalent to.
func (w *workload) command(seed int64) string {
	plat := "both"
	if len(w.platforms) == 1 {
		plat = strings.ToLower(w.platforms[0].Short())
	}
	camp := "all"
	if len(w.campaigns) == 1 {
		camp = strings.ToLower(w.campaigns[0].String())
	}
	size := fmt.Sprintf("-n %d", w.n)
	if w.n == 0 {
		size = fmt.Sprintf("-paper-fraction %g", w.fraction)
	}
	nodes := " -nodes 1"
	if w.farm {
		nodes = "" // the CLI default: one node per host CPU
	}
	return fmt.Sprintf("kfi-campaign -platform %s -campaign %s %s -seed %d%s -journal DIR -quiet -figures=false",
		plat, camp, size, seed, nodes)
}
