package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/platform"
)

// campKey names one (platform, campaign) of a round, e.g. "p4/code".
func campKey(p isa.Platform, c inject.Campaign) string {
	return strings.ToLower(p.Short()) + "/" + strings.ToLower(strings.ReplaceAll(c.String(), " ", "-"))
}

// campOut is one campaign's rows and the counters that must repeat exactly.
type campOut struct {
	header campaign.Header
	rows   []inject.Result
	engine platform.EngineStats
	// synthesized marks rows the scheduler produced without running the
	// guest (known only to the re-drive).
	synthesized []bool
}

// roundOut is one completed round.
type roundOut struct {
	seed int64
	// Host times of the round: setup (build, boot, golden run, profile of
	// every node of every platform), the campaign phase, and the whole round.
	setupS, campaignS, wallS float64
	// rssMB is the peak resident memory of the process that ran the round.
	rssMB float64
	camps map[string]*campOut
	keys  []string // campaign keys in execution order
}

func (r *roundOut) injections() int {
	n := 0
	for _, c := range r.camps {
		n += len(c.rows)
	}
	return n
}

// quarantined counts rows the harness gave up on.
func (r *roundOut) quarantined() int {
	n := 0
	for _, c := range r.camps {
		for _, row := range c.rows {
			if row.Outcome == inject.OQuarantined {
				n++
			}
		}
	}
	return n
}

// setup is one platform's guest systems, built the way core.Run builds them.
type setup struct {
	system *core.System
	farm   *campaign.Farm
}

func (s setup) golden() uint32 {
	if s.farm != nil {
		return s.farm.Golden()
	}
	return s.system.Golden
}

func buildSetup(p isa.Platform, nodes int) (setup, error) {
	if nodes > 1 {
		f, err := campaign.NewFarm(p, nodes, 1, kernel.Options{})
		return setup{farm: f}, err
	}
	sys, err := core.BuildSystem(p, core.BuildOptions{})
	return setup{system: sys}, err
}

func (s setup) run(spec campaign.Spec, exec campaign.ExecOptions) (*campaign.Result, error) {
	if s.farm != nil {
		return s.farm.RunWith(spec, nil, exec)
	}
	return campaign.RunWith(s.system.Sys, s.system.Golden, s.system.Profile, spec, nil, exec)
}

// runRound executes one round untraced, exactly as `w.command(seed)` does
// through core.Run, with setup timed apart from the campaigns. Journals go
// under dir.
func runRound(w *workload, seed int64, dir string) (*roundOut, error) {
	out := &roundOut{seed: seed, camps: map[string]*campOut{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	for _, p := range w.platforms {
		t0 := time.Now()
		s, err := buildSetup(p, w.nodes())
		if err != nil {
			return nil, fmt.Errorf("setup %v: %w", p, err)
		}
		t1 := time.Now()
		out.setupS += t1.Sub(t0).Seconds()
		for _, c := range w.campaigns {
			spec := campaign.Spec{Campaign: c, N: w.count(p, c), Seed: core.SpecSeed(seed, p, c)}
			h := campaign.HeaderFor(p, s.golden(), spec)
			j, err := campaign.CreateJournal(core.JournalPath(dir, p, c), h)
			if err != nil {
				return nil, err
			}
			res, err := s.run(spec, campaign.ExecOptions{Journal: j})
			if cerr := j.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", campKey(p, c), seed, err)
			}
			k := campKey(p, c)
			out.keys = append(out.keys, k)
			out.camps[k] = &campOut{header: h, rows: res.Results, engine: res.EngineStats}
		}
		out.campaignS += time.Since(t1).Seconds()
	}
	out.wallS = time.Since(start).Seconds()
	out.rssMB = peakRSSMB()
	return out, nil
}

// childReport is what a child process prints after running one round.
type childReport struct {
	SetupS    float64                         `json:"setup_s"`
	CampaignS float64                         `json:"campaign_s"`
	WallS     float64                         `json:"wall_s"`
	RSSMB     float64                         `json:"rss_mb"`
	Engine    map[string]platform.EngineStats `json:"engine"`
}

// childRound runs one round in this process and prints its report; it is
// the body of the child process spawnRound starts.
func childRound(w *workload, seed int64, dir string) error {
	r, err := runRound(w, seed, dir)
	if err != nil {
		return err
	}
	if _, err := journalDigests(w, r, dir); err != nil {
		return err
	}
	rep := childReport{SetupS: r.setupS, CampaignS: r.campaignS, WallS: r.wallS,
		RSSMB: r.rssMB, Engine: map[string]platform.EngineStats{}}
	for k, c := range r.camps {
		rep.Engine[k] = c.engine
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawnRound runs one round in a child process of its own, as a user's
// kfi-campaign invocation is, so that each round's peak memory is its own.
// The rows come back through the journals the child wrote under dir.
func spawnRound(w *workload, seed int64, dir string) (*roundOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", w.name, "--child-round", fmt.Sprint(seed), "--dir", dir)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("round at seed %d: %w", seed, err)
	}
	var rep childReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("round at seed %d: %w", seed, err)
	}
	out := &roundOut{seed: seed, setupS: rep.SetupS, campaignS: rep.CampaignS, wallS: rep.WallS,
		rssMB: rep.RSSMB, camps: map[string]*campOut{}}
	for _, p := range w.platforms {
		for _, c := range w.campaigns {
			k := campKey(p, c)
			h, completed, err := campaign.ReadJournal(core.JournalPath(dir, p, c))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
			co := &campOut{header: h, rows: make([]inject.Result, h.N)}
			for i := range co.rows {
				row, ok := completed[i]
				if !ok {
					return nil, fmt.Errorf("seed %d: %s journal lacks row %d", seed, k, i)
				}
				co.rows[i] = row
			}
			co.engine = rep.Engine[k]
			out.keys = append(out.keys, k)
			out.camps[k] = co
		}
	}
	return out, nil
}

// journalDigests reads back every journal a round wrote and hashes its
// canonical form. It also checks that the journal holds exactly the rows the
// campaign returned.
func journalDigests(w *workload, r *roundOut, dir string) (map[string]string, error) {
	out := map[string]string{}
	for _, p := range w.platforms {
		for _, c := range w.campaigns {
			k := campKey(p, c)
			h, completed, err := campaign.ReadJournal(core.JournalPath(dir, p, c))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
			want, err := canonical(r.camps[k])
			if err != nil {
				return nil, err
			}
			got, err := campaign.CanonicalJournalBytes(h, completed)
			if err != nil {
				return nil, err
			}
			if string(got) != string(want) {
				return nil, fmt.Errorf("%s seed %d: journal differs from the campaign's returned rows", k, r.seed)
			}
			out[k] = digest(got)
		}
	}
	return out, nil
}

func canonical(c *campOut) ([]byte, error) {
	completed := make(map[int]inject.Result, len(c.rows))
	for i, row := range c.rows {
		completed[i] = row
	}
	return campaign.CanonicalJournalBytes(c.header, completed)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// sameRows compares two rounds of the same seed row for row, through their
// canonical journals.
func sameRows(a, b *roundOut) error {
	if len(a.keys) != len(b.keys) {
		return fmt.Errorf("seed %d: %d campaigns against %d", a.seed, len(a.keys), len(b.keys))
	}
	for _, k := range a.keys {
		if b.camps[k] == nil {
			return fmt.Errorf("seed %d: campaign %s missing", a.seed, k)
		}
		x, err := canonical(a.camps[k])
		if err != nil {
			return err
		}
		y, err := canonical(b.camps[k])
		if err != nil {
			return err
		}
		if string(x) != string(y) {
			return fmt.Errorf("seed %d: %s rows differ between the campaign driver and the layer-by-layer re-drive", a.seed, k)
		}
	}
	return nil
}
