package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"drt/internal/exp"
	"drt/internal/obs"
)

// usage is a point-in-time reading of this process's cost counters.
type usage struct {
	at       time.Time
	cpu      float64 // user+sys seconds
	alloc    uint64  // cumulative Go heap bytes allocated
	gcCPU    float64
	gcCycles uint64
}

var usageSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rtmetrics.Read(usageSamples)
	return usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		alloc:    usageSamples[0].Value.Uint64(),
		gcCPU:    usageSamples[1].Value.Float64(),
		gcCycles: usageSamples[2].Value.Uint64(),
	}
}

// usageDelta is the cost of one timed phase.
type usageDelta struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	GCCycles   uint64  `json:"gc_cycles"`
}

func since(u usage) usageDelta {
	now := readUsage()
	return usageDelta{
		WallS:      now.at.Sub(u.at).Seconds(),
		CPUS:       now.cpu - u.cpu,
		AllocBytes: now.alloc - u.alloc,
		GCCPUS:     now.gcCPU - u.gcCPU,
		GCCycles:   now.gcCycles - u.gcCycles,
	}
}

// runChild runs one phase of a run in this process and reports it on
// stdout: "ready" once the timed phase's starting state is reached, then
// "result <json>".
func runChild(mode string, wl workload, dir string, seed uint64) error {
	store := filepath.Join(dir, "store")
	switch mode {
	case "replay":
		out, err := replay(wl, dir, seed)
		if err != nil {
			return err
		}
		return emit(out)
	case "sample", "setup", "cold", "traced":
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	var col *obs.Collector
	var rec obs.Recorder
	if mode == "traced" {
		col = obs.NewCollector()
		rec = col
	}
	c := exp.NewContext(wl.options(store, rec))
	if mode != "cold" {
		if err := wl.setup(c); err != nil {
			return err
		}
	}
	fmt.Println("ready")
	if mode == "setup" {
		return nil
	}
	var before map[string]int64
	if col != nil {
		before = counters(col)
	}
	start := readUsage()
	tables := wl.runFigures(c)
	out := sampleOut{usageDelta: since(start), Tables: tables}
	end := readUsage()
	out.ProcGCCPUS, out.ProcGCCycles = end.gcCPU, end.gcCycles
	if col != nil {
		out.Counters = counters(col)
		for k, v := range before {
			out.Counters[k] -= v
		}
	}
	return emit(out)
}

// counterNames are the collector counters the traced pass reports.
var counterNames = []string{
	"exp.workload.misses",
	"exp.tracecache.hits", "exp.tracecache.misses", "exp.tracecache.direct",
	"trace_store.hits", "trace_store.misses",
}

func counters(col *obs.Collector) map[string]int64 {
	m := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		m[n] = col.Counter(n)
	}
	return m
}

func emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Printf("result %s\n", b)
	return nil
}
