package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drt/internal/exp"
)

// runInProcess runs one sample of wl in this process, the way a sample
// child does, with fresh operand-cache and trace-store directories, and
// returns its table checks and timed-phase allocation.
func runInProcess(t *testing.T, wl workload) ([]tableCheck, uint64) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", filepath.Join(dir, "ops"))
	store := filepath.Join(dir, "store")
	if wl.warm {
		wl.runFigures(exp.NewContext(wl.options(store, nil)))
	}
	c := exp.NewContext(wl.options(store, nil))
	if err := wl.setup(c); err != nil {
		t.Fatalf("%s: setup: %v", wl.name, err)
	}
	start := readUsage()
	checks := wl.runFigures(c)
	return checks, since(start).AllocBytes
}

// TestOrderIndependence runs every workload in one process forwards and
// then backwards: each must reproduce the expected digests and allocate
// the same within alloc_mb's bound, so no context, memo or cache carries
// from one workload to the next.
func TestOrderIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every workload twice")
	}
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	bound := endToEndBound(t, "alloc_mb")
	allocs := map[string][]uint64{}
	order := append([]workload(nil), allWorkloads...)
	for pass := 0; pass < 2; pass++ {
		for _, wl := range order {
			checks, alloc := runInProcess(t, wl)
			if n, why := wl.countFailures(checks, expected); n > 0 {
				t.Errorf("pass %d: %s: %s", pass, wl.name, strings.Join(why, "; "))
			}
			allocs[wl.name] = append(allocs[wl.name], alloc)
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for name, a := range allocs {
		if d := math.Abs(float64(a[1])-float64(a[0])) / float64(a[0]); d > bound {
			t.Errorf("%s: alloc %d B forwards, %d B backwards (%.1f%% apart, bound %.0f%%)", name, a[0], a[1], 100*d, 100*bound)
		}
	}
}

// endToEndBound reads an end-to-end metric's bound from BENCHMARK.json.
func endToEndBound(t *testing.T, name string) float64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

// TestDigestMismatchFails pins the correctness gate: an altered expected
// digest, a missing one and a runner error each count as a failure.
func TestDigestMismatchFails(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := workloadByName("partition")
	key := wl.digestKey("fig14")
	good := tableCheck{ID: "fig14", Digest: expected[key]}
	if good.Digest == "" {
		t.Fatalf("no expected digest for %s", key)
	}
	if n, why := wl.countFailures([]tableCheck{good}, expected); n != 0 {
		t.Fatalf("expected digest counted as failure: %v", why)
	}
	altered := map[string]string{key: strings.Repeat("0", 64)}
	cases := []struct {
		name     string
		check    tableCheck
		expected map[string]string
	}{
		{"altered digest", good, altered},
		{"missing digest", good, map[string]string{}},
		{"runner error", tableCheck{ID: "fig14", Err: "boom"}, expected},
	}
	for _, tc := range cases {
		if n, _ := wl.countFailures([]tableCheck{tc.check}, tc.expected); n != 1 {
			t.Errorf("%s: %d failures, want 1", tc.name, n)
		}
	}
}
