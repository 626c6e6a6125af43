package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gateSeed is the seed of the gate round every run starts with; its
// journals must hash to the committed digests.
const gateSeed = 1

//go:embed digests.json
var digestsJSON []byte

// committedDigests maps workload → round seed → campaign key → the sha256 of
// its canonical journal.
func committedDigests() (map[string]map[string]map[string]string, error) {
	var d map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkDigests compares a round's journal digests with the committed ones
// for its seed; ok is false when none are committed for that seed.
func checkDigests(w *workload, seed int64, got map[string]string) (ok bool, err error) {
	all, err := committedDigests()
	if err != nil {
		return false, err
	}
	want, ok := all[w.name][fmt.Sprint(seed)]
	if !ok {
		return false, nil
	}
	if len(want) != len(got) {
		return true, fmt.Errorf("seed %d: %d journals, %d committed", seed, len(got), len(want))
	}
	for k, d := range want {
		if got[k] != d {
			return true, fmt.Errorf("seed %d: %s journal digest %s, committed %s", seed, k, got[k], d)
		}
	}
	return true, nil
}

// recordDigests runs the gate round of every workload and writes the
// digests file.
func recordDigests(path, work string) error {
	all := map[string]map[string]map[string]string{}
	for _, w := range workloads {
		dir := filepath.Join(work, w.name)
		r, err := runRound(w, gateSeed, dir)
		if err != nil {
			return err
		}
		d, err := journalDigests(w, r, dir)
		if err != nil {
			return err
		}
		all[w.name] = map[string]map[string]string{fmt.Sprint(gateSeed): d}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sourceFingerprint hashes the checkout's Go sources, so that recorded
// counts are only ever compared between runs of the same program.
func sourceFingerprint(root string) (string, error) {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkCounts compares what one round of a workload must reproduce exactly
// in every run of the same program — its journal digests, its engine
// counters on a single node (a farm's depend on which node ran what), the
// layer counts of its traced re-drive — with the record an earlier run left
// for this workload and round seed, adding whatever that record lacks. Any
// difference is a determinism bug.
func checkCounts(dir string, w *workload, seed int64, counts map[string]string) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, seed))
	old := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	changed := false
	for k, v := range counts {
		if o, ok := old[k]; !ok {
			old[k] = v
			changed = true
		} else if o != v {
			return fmt.Errorf("seed %d: %s is %s, an earlier run of the same program recorded %s", seed, k, v, o)
		}
	}
	if !changed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
