package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"drt/internal/exp"
	"drt/internal/obs"
	"drt/internal/workloads"
)

// workload is one benchmark workload: the runner configuration and the
// figures its timed phase regenerates. Only Scale, MicroTile,
// MaxWorkloads, Parallel and TraceStore are ever set on exp.Options; the
// byte-identical knobs (Grid, Stream, Sched, Index, NoTraceCache,
// NoRetimeBatch, NoOperandCache) stay at their exp defaults so they can
// be deleted without touching the benchmark.
type workload struct {
	name         string
	scale        int
	microTile    int
	maxWorkloads int
	figs         []string
	// squareSetup prepares the fig14 S² inputs with Context.Square before
	// the timed phase (partition).
	squareSetup bool
	// warm runs a cold recording pass into the run's trace store in a
	// separate process as set-up; the timed phase is a fresh process
	// regenerating the same figures from that store (warm-restart).
	warm bool
}

var allWorkloads = []workload{
	{name: "tallskinny", scale: 48, microTile: 8, maxWorkloads: 6, figs: []string{"fig7"}},
	{name: "partition", scale: 48, microTile: 8, maxWorkloads: 6, figs: []string{"fig14"}, squareSetup: true},
	{name: "warm-restart", scale: 16, microTile: 16, figs: []string{"fig12", "fig15", "fig16"}, warm: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is the exp configuration of one run of wl. store is the trace
// store directory (warm-restart only); rec is attached only in the traced
// pass.
func (wl workload) options(store string, rec obs.Recorder) exp.Options {
	o := exp.Options{
		Scale:        wl.scale,
		MicroTile:    wl.microTile,
		MaxWorkloads: wl.maxWorkloads,
		Parallel:     runtime.NumCPU(), // one process, one worker per CPU
		Rec:          rec,
	}
	if wl.warm {
		o.TraceStore = store
	}
	return o
}

// fig6Entries mirrors exp's Fig. 6 entry selection under MaxWorkloads: the
// two pattern groups taken alternately from the front. The traced run
// checks the mirror against the workloads the runners build, so a drift
// fails the run instead of replaying the wrong inputs.
func fig6Entries(max int) []workloads.Entry {
	set := workloads.Fig6Set()
	if max <= 0 || max >= len(set) {
		return set
	}
	var diamond, unstructured []workloads.Entry
	for _, e := range set {
		if e.Pattern == workloads.Diamond {
			diamond = append(diamond, e)
		} else {
			unstructured = append(unstructured, e)
		}
	}
	var out []workloads.Entry
	for i := 0; len(out) < max; i++ {
		if i < len(diamond) {
			out = append(out, diamond[i])
			if len(out) == max {
				break
			}
		}
		if i < len(unstructured) {
			out = append(out, unstructured[i])
		}
		if i >= len(diamond) && i >= len(unstructured) {
			break
		}
	}
	return out
}

// firstN is entries[:n] when longer (the figures that cap their matrix set).
func firstN(entries []workloads.Entry, n int) []workloads.Entry {
	if len(entries) > n {
		return entries[:n]
	}
	return entries
}

// setup brings a fresh context to the timed phase's starting state.
func (wl workload) setup(c *exp.Context) error {
	if !wl.squareSetup {
		return nil
	}
	for _, e := range firstN(fig6Entries(wl.maxWorkloads), 6) {
		if _, err := c.Square(e); err != nil {
			return err
		}
	}
	return nil
}

// tableCheck is one runner call: the table digest, or the error.
type tableCheck struct {
	ID     string `json:"id"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// runFigures regenerates wl's figures through the public runner entry
// points and digests each table.
func (wl workload) runFigures(c *exp.Context) []tableCheck {
	out := make([]tableCheck, 0, len(wl.figs))
	for _, id := range wl.figs {
		f, ok := c.Runner(id)
		if !ok {
			out = append(out, tableCheck{ID: id, Err: "unknown runner"})
			continue
		}
		t, err := f()
		if err != nil {
			out = append(out, tableCheck{ID: id, Err: err.Error()})
			continue
		}
		sum := sha256.Sum256([]byte(t.String()))
		out = append(out, tableCheck{ID: id, Digest: hex.EncodeToString(sum[:])})
	}
	return out
}

// expectedJSON holds the table digests recorded from the seed commit, keyed
// by "<fig>@<scale>/<microtile>/<maxworkloads>".
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

func (wl workload) digestKey(fig string) string {
	return fmt.Sprintf("%s@%d/%d/%d", fig, wl.scale, wl.microTile, wl.maxWorkloads)
}

// countFailures returns how many checks errored or missed their expected
// digest, describing each on the returned lines.
func (wl workload) countFailures(checks []tableCheck, expected map[string]string) (int, []string) {
	n := 0
	var why []string
	for _, ch := range checks {
		want, ok := expected[wl.digestKey(ch.ID)]
		switch {
		case ch.Err != "":
			why = append(why, fmt.Sprintf("%s: %s", ch.ID, ch.Err))
		case !ok:
			why = append(why, fmt.Sprintf("%s: no expected digest for %s (table digest %s)", ch.ID, wl.digestKey(ch.ID), ch.Digest))
		case ch.Digest != want:
			why = append(why, fmt.Sprintf("%s: table digest %s, expected %s", ch.ID, ch.Digest, want))
		default:
			continue
		}
		n++
	}
	return n, why
}
