package campaign

import (
	"fmt"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
)

// HardenStudy is a matched hardened-vs-unhardened comparison on one
// platform: the same injection plan executed against two guest systems that
// differ only in whether the kernel image went through the kir.Harden
// transforms. It carries the raw outcome pairs plus the static (code size)
// and dynamic (golden-run cycles) overhead of the hardening.
type HardenStudy struct {
	Platform isa.Platform
	Opts     kir.HardenOpts

	// CodeBytes / HardCodeBytes are the kernel code-section sizes.
	CodeBytes     int
	HardCodeBytes int
	// GoldenCycles / HardGoldenCycles are the fault-free benchmark lengths.
	GoldenCycles     uint64
	HardGoldenCycles uint64

	Rows []HardenRow
}

// HardenRow is one campaign's matched outcome pair. For stack, data, and
// system-register campaigns Plain[i] and Hard[i] are the SAME injection
// (address, register, bit, delay) landing on each build; for code campaigns
// the targets are re-derived per image (instruction addresses differ between
// the builds) from the same seed, so the comparison is distributional rather
// than injection-for-injection.
type HardenRow struct {
	Spec  Spec
	Plain []inject.Result
	Hard  []inject.Result
}

// CodeOverhead is the hardened/unhardened kernel code-size ratio.
func (s *HardenStudy) CodeOverhead() float64 {
	if s.CodeBytes == 0 {
		return 0
	}
	return float64(s.HardCodeBytes) / float64(s.CodeBytes)
}

// CycleOverhead is the hardened/unhardened fault-free run-length ratio.
func (s *HardenStudy) CycleOverhead() float64 {
	if s.GoldenCycles == 0 {
		return 0
	}
	return float64(s.HardGoldenCycles) / float64(s.GoldenCycles)
}

// RunHardenStudy builds the matched system pair for one platform and runs
// every spec against both builds. Target generation is anchored to the
// UNHARDENED system: stack, data, and system-register targets transfer
// verbatim (hardening adds no globals, so the data/bss layout, process
// table, and register file are identical), and injection delays are drawn
// from the unhardened run length on both sides so matched injections strike
// the same workload phase. Code targets alone are re-derived against the
// hardened image, seeded identically.
//
// progress (may be nil) receives completed-injection counts over the whole
// study (both builds, all specs).
func RunHardenStudy(platform isa.Platform, scale int, hopts kir.HardenOpts, specs []Spec,
	progress func(done, total int)) (*HardenStudy, error) {
	if !hopts.Enabled() {
		return nil, fmt.Errorf("campaign: harden study needs at least one hardening pass enabled")
	}
	plain, err := NewFarm(platform, 1, scale, kernel.Options{})
	if err != nil {
		return nil, err
	}
	hard, err := NewFarm(platform, 1, scale, kernel.Options{Harden: hopts})
	if err != nil {
		return nil, err
	}
	study := &HardenStudy{
		Platform:         platform,
		Opts:             hopts,
		CodeBytes:        len(plain.nodes[0].KernelImage.Code),
		HardCodeBytes:    len(hard.nodes[0].KernelImage.Code),
		GoldenCycles:     plain.cycles,
		HardGoldenCycles: hard.cycles,
	}
	total := 0
	for _, spec := range specs {
		total += 2 * spec.N
	}
	done := 0
	tick := func(int, int) {
		done++
		if progress != nil {
			progress(done, total)
		}
	}
	for _, spec := range specs {
		plainTargets, hardTargets, err := matchedTargets(plain, hard, spec)
		if err != nil {
			return nil, err
		}
		row := HardenRow{Spec: spec}
		if row.Plain, err = plain.runTargets(spec, plainTargets, tick); err != nil {
			return nil, err
		}
		if row.Hard, err = hard.runTargets(spec, hardTargets, tick); err != nil {
			return nil, err
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// matchedTargets generates one spec's target lists for both builds. The
// unhardened system's profile length seeds the delay distribution for BOTH
// generators, so delay-triggered targets are identical on each side.
func matchedTargets(plain, hard *Farm, spec Spec) (pt, ht []inject.Target, err error) {
	runCycles := profileCycles(plain.profile)
	gen := NewGenerator(plain.nodes[0], plain.profile, spec.Seed, runCycles)
	if pt, err = gen.Targets(spec); err != nil {
		return nil, nil, err
	}
	if spec.Campaign == inject.CampCode {
		hgen := NewGenerator(hard.nodes[0], hard.profile, spec.Seed, runCycles)
		if ht, err = hgen.Targets(spec); err != nil {
			return nil, nil, err
		}
		return pt, ht, nil
	}
	ht = make([]inject.Target, len(pt))
	copy(ht, pt)
	return pt, ht, nil
}

// runTargets executes an explicit target list through the farm's one plan
// and driver.
func (f *Farm) runTargets(spec Spec, targets []inject.Target, progress func(done, total int)) ([]inject.Result, error) {
	p, err := f.plan(spec, targets, ExecOptions{})
	if err != nil {
		return nil, err
	}
	res, err := f.drive(p, spec, progress, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}
