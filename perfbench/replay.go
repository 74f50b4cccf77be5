package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/cpuref"
	"drt/internal/exp"
	"drt/internal/extractor"
	"drt/internal/gen"
	"drt/internal/kernels"
	"drt/internal/sim"
	"drt/internal/tensor"
	"drt/internal/tiling"
	"drt/internal/workloads"
)

// The layer replay re-executes every cell of a workload — its timed phase
// and, for warm-restart, the cold recording pass that is its set-up —
// through the layer entry points, one call at a time on one goroutine, and
// times each call. The per-task layers (extraction and the restricted
// kernel) are timed per cell over the cell's whole task stream, so the
// clock reads do not dominate sub-microsecond calls.
//
// Each replayed engine cell drives its extraction and kernel replay from a
// reconstruction of extensor's private engine-option mapping, and asserts
// that the reconstruction records a schedule whose retimed sim.Result
// equals extensor.Run's; if the mapping drifts the run fails instead of
// attributing the wrong work.

// replayOut is the replay child's report.
type replayOut struct {
	Metrics map[string]metric `json:"metrics"`
	// TimedPathS sums the replayed seconds of exactly the calls the
	// workload's timed phase makes (attribution numerator).
	TimedPathS float64 `json:"timed_path_s"`
	CellMaxS   float64 `json:"cell_max_s"`
	// TimedBuilds counts the workloads the timed phase prepares.
	TimedBuilds int      `json:"timed_builds"`
	Checks      int      `json:"checks"`
	Failures    []string `json:"failures"`
}

// layers accumulates replayed time and work per layer.
type layers struct {
	genS                 float64
	genNNZ               int64
	gustS                float64
	gustMACCs            int64
	gustAlloc            uint64
	gridS                float64
	gridNNZ              int64
	cpurefS              float64
	extractS, extractPES float64
	tasks, peTasks       int64
	emptyTasks           int64
	boxHits, boxMisses   int64
	restrictedS          float64
	restrictedCalls      int64
	restrictedMACCs      int64
	restrictedAlloc      uint64
	engineS, engineSelfS float64
	recordS              float64
	sweepS               float64
	retimeS              float64
	retimeTasks          int64
	batch12S, batch2S    float64
	batch12Units         int64
	batch2Units          int64
	writeS               float64
	writeBytes           int64
	openS                float64
	openBytes            int64
	opens, mapped        int64
}

type replayer struct {
	wl       workload
	c        *exp.Context // machine and CPU scaling only; no runner is called
	dir      string
	rng      *rand.Rand
	l        layers
	cells    []float64 // timed-path seconds per runner cell
	timedS   float64
	builds   int // workloads prepared in the timed phase
	checks   int
	failures []string
}

func replay(wl workload, dir string, seed uint64) (replayOut, error) {
	p := &replayer{
		wl:  wl,
		c:   exp.NewContext(wl.options("", nil)),
		dir: dir,
		rng: rand.New(rand.NewPCG(seed, 0x6472742d62656e63)),
	}
	var err error
	switch wl.name {
	case "tallskinny":
		err = p.tallSkinny()
	case "partition":
		err = p.partition()
	case "warm-restart":
		err = p.warmRestart()
	default:
		err = fmt.Errorf("no replay for %s", wl.name)
	}
	if err != nil {
		return replayOut{}, err
	}
	out := replayOut{Metrics: p.metrics(), TimedPathS: p.timedS, TimedBuilds: p.builds, Checks: p.checks, Failures: p.failures}
	for _, s := range p.cells {
		out.CellMaxS = math.Max(out.CellMaxS, s)
	}
	return out, nil
}

func (p *replayer) check(ok bool, format string, args ...any) {
	p.checks++
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *replayer) extensorOptions() extensor.Options {
	opt := extensor.DefaultOptions()
	opt.Machine = p.c.Machine()
	return opt
}

func secs(t time.Time) float64 { return time.Since(t).Seconds() }

// tallSkinny replays fig7: per (entry, orientation) cell the operand pair,
// reference product, grids, CPU model, both static-shape sweeps and the
// OP-DRT engine run.
func (p *replayer) tallSkinny() error {
	type cell struct {
		e     workloads.Entry
		ftf   bool
		label string
	}
	var cells []cell
	for _, e := range fig6Entries(p.wl.maxWorkloads) {
		cells = append(cells, cell{e, true, e.Name + "-FtF"}, cell{e, false, e.Name + "-FFt"})
	}
	p.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for _, cl := range cells {
		t0 := time.Now()
		f, fT := cl.e.TallSkinnyPair(p.wl.scale, 1<<7)
		a, b := f, fT
		if cl.ftf {
			a, b = fT, f
		}
		var a32, b32 *tensor.CSR32
		if a.CompactFits() && b.CompactFits() && a.NNZ()+b.NNZ() >= accel.DefaultCompactNNZ {
			a32, b32, a, b = a.Compact(), b.Compact(), nil, nil
		}
		genS := secs(t0)
		p.l.genS += genS
		p.l.genNNZ += int64(f.NNZ() + fT.NNZ())
		w, prepS := p.finish(cl.label, a, b, a32, b32)
		p.builds++
		cellS := genS + prepS + p.cpuref(w)
		opt := p.extensorOptions()
		for _, v := range []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT} {
			cc, err := p.engineCell(v, w, opt, true)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", cl.label, v, err)
			}
			if v == extensor.OPDRT {
				cellS += cc.engineS
			} else {
				cellS += cc.sweepS
			}
		}
		p.cells = append(p.cells, cellS)
		p.timedS += cellS
	}
	return nil
}

// partition replays fig14: the S² inputs (set-up path), then the 78
// one-shot partition cells. Each input also gets a CPU-model probe and an
// ExTensor-OP static-shape sweep probe; fig14 makes neither call, so they
// stay out of the timed-path sum.
func (p *replayer) partition() error {
	entries := firstN(fig6Entries(p.wl.maxWorkloads), 6)
	ws := make([]*accel.Workload, len(entries))
	for i, e := range entries {
		w, _, err := p.square(e)
		if err != nil {
			return err
		}
		ws[i] = w
		p.cpuref(w)
		if err := p.sweepProbe(w); err != nil {
			return err
		}
	}
	var parts []sim.Partition
	for _, af := range []float64{0.05, 0.10, 0.20, 0.40} {
		for _, bf := range []float64{0.10, 0.30, 0.50, 0.70} {
			if of := 1 - af - bf; of >= 0.05 {
				parts = append(parts, sim.Partition{AFrac: af, BFrac: bf, OFrac: of})
			}
		}
	}
	order := p.rng.Perm(len(parts) * len(entries))
	for _, i := range order {
		opt := p.extensorOptions()
		opt.Partition = parts[i/len(entries)]
		w := ws[i%len(entries)]
		cc, err := p.engineCell(extensor.OPDRT, w, opt, true)
		if err != nil {
			return fmt.Errorf("%s/%v: %w", w.Name, opt.Partition, err)
		}
		p.cells = append(p.cells, cc.engineS)
		p.timedS += cc.engineS
	}
	return nil
}

// warmRestart replays the cold recording pass (set-up: every schedule
// fig12, fig15 and fig16 record) and prices the timed phase's calls: each
// input's preparation and CPU model, one store open per schedule, a K=12
// RetimeBatch per fig12 workload and a K=1 Retime per fig15/fig16 point.
func (p *replayer) warmRestart() error {
	entries := fig6Entries(p.wl.maxWorkloads)
	ws := make(map[string]*accel.Workload, len(entries))
	for _, e := range entries {
		w, prepS, err := p.square(e)
		if err != nil {
			return err
		}
		ws[e.Name] = w
		p.builds++
		cellS := prepS + p.cpuref(w) // one fig12 forEntries cell
		p.cells = append(p.cells, cellS)
		p.timedS += cellS
	}
	for _, e := range firstN(entries, 6) {
		if err := p.sweepProbe(ws[e.Name]); err != nil {
			return err
		}
	}
	// One schedule per (entry, strategy, startJ) the three figures record,
	// with the number of K=1 retimes the timed phase prices it under and
	// whether fig12 batches its 12 points over it.
	type sched struct {
		e       workloads.Entry
		alt     bool
		startJ  int
		k1      int
		batch12 bool
	}
	var scheds []sched
	fig16 := map[string]bool{}
	for _, e := range firstN(entries, 6) {
		fig16[e.Name] = true
	}
	for _, e := range entries {
		k1 := 1 // fig15 greedy
		if fig16[e.Name] {
			k1++ // fig16 startJ=1
		}
		scheds = append(scheds, sched{e: e, k1: k1, batch12: true}, sched{e: e, alt: true, k1: 1})
		if fig16[e.Name] {
			for _, sj := range []int{2, 4, 8, 16} {
				scheds = append(scheds, sched{e: e, startJ: sj, k1: 1})
			}
		}
	}
	p.rng.Shuffle(len(scheds), func(i, j int) { scheds[i], scheds[j] = scheds[j], scheds[i] })
	for _, s := range scheds {
		opt := p.extensorOptions()
		if s.alt {
			opt.Strategy = core.Alternating
		}
		if s.startJ > 0 {
			opt.InitialSize = []int{1, s.startJ, 1}
		}
		// The extraction/kernel breakdown covers fig12's schedules only: the
		// timed phase runs neither layer, and the full set would push the
		// traced run toward its time limit.
		cc, err := p.engineCell(extensor.OPDRT, ws[s.e.Name], opt, s.batch12)
		if err != nil {
			return fmt.Errorf("%s: %w", s.e.Name, err)
		}
		first := cc.openS // the first cell to request a schedule opens it
		if s.batch12 {
			p.cells = append(p.cells, first+cc.batch12S)
			p.timedS += first + cc.batch12S
			first = 0
		}
		for i := 0; i < s.k1; i++ {
			p.cells = append(p.cells, first+cc.retimeS)
			p.timedS += first + cc.retimeS
			first = 0
		}
	}
	return nil
}

// square prepares one S² input as exp does (operand cache, index width,
// shared grid for A = B) and returns its preparation seconds.
func (p *replayer) square(e workloads.Entry) (*accel.Workload, float64, error) {
	t0 := time.Now()
	op, err := gen.CachedBuild(e.Spec(p.wl.scale), nil)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", e.Name, err)
	}
	var a *tensor.CSR
	var a32 *tensor.CSR32
	switch {
	case op.Compact != nil && 2*op.Compact.NNZ() >= accel.DefaultCompactNNZ:
		a32 = op.Compact
	case op.Compact != nil:
		a = op.Compact.Widen()
	case op.Wide.CompactFits() && 2*op.Wide.NNZ() >= accel.DefaultCompactNNZ:
		a32 = op.Wide.Compact()
	default:
		a = op.Wide
	}
	genS := secs(t0)
	p.l.genS += genS
	_, _, nnz := op.Shape()
	p.l.genNNZ += int64(nnz)
	w, prepS := p.finish(e.Name, a, a, a32, a32)
	return w, genS + prepS, nil
}

// finish runs the reference product and builds the summary grids the way
// accel's workload constructors do, timing each layer.
func (p *replayer) finish(name string, a, b *tensor.CSR, a32, b32 *tensor.CSR32) (*accel.Workload, float64) {
	mt := p.wl.microTile
	var format tiling.Format // exp's defaults
	var mode tiling.Mode
	w := &accel.Workload{Name: name, A: a, B: b, A32: a32, B32: b32, MicroTile: mt}

	m0, t0 := readUsage().alloc, time.Now()
	var z *tensor.CSR
	var st kernels.Stats
	if a32 != nil {
		z, st = kernels.Gustavson(a32, b32)
	} else {
		z, st = kernels.Gustavson(a, b)
	}
	gustS := secs(t0)
	p.l.gustS += gustS
	p.l.gustAlloc += readUsage().alloc - m0
	p.l.gustMACCs += st.MACCs

	t0 = time.Now()
	if a32 != nil {
		w.GA = tiling.NewSummaryGrid(a32, mt, mt, format, mode)
		w.GB = w.GA
		if b32 != a32 {
			w.GB = tiling.NewSummaryGrid(b32, mt, mt, format, mode)
		}
	} else {
		w.GA = tiling.NewSummaryGrid(a, mt, mt, format, mode)
		w.GB = w.GA
		if b != a {
			w.GB = tiling.NewSummaryGrid(b, mt, mt, format, mode)
		}
	}
	w.GZ = tiling.NewSummaryGrid(z, mt, mt, format, mode)
	gridS := secs(t0)
	p.l.gridS += gridS
	_, _, na := w.AShape()
	_, _, nb := w.BShape()
	p.l.gridNNZ += int64(na + z.NNZ())
	if w.GB != w.GA {
		p.l.gridNNZ += int64(nb)
	}
	w.Z, w.MACCs = z, st.MACCs
	return w, gustS + gridS
}

func (p *replayer) cpuref(w *accel.Workload) float64 {
	t0 := time.Now()
	cpuref.SpMSpM(w, p.c.CPU())
	s := secs(t0)
	p.l.cpurefS += s
	return s
}

// sweepProbe times an ExTensor-OP static-shape sweep on an input whose
// figure runs none, so the layer's rate is measured on every workload.
func (p *replayer) sweepProbe(w *accel.Workload) error {
	opt := p.extensorOptions()
	opt.Parallel = 1
	t0 := time.Now()
	_, err := extensor.BestStaticShape(extensor.OP, w, opt)
	p.l.sweepS += secs(t0)
	return err
}

// cellCost is one replayed engine cell's timed-path candidates.
type cellCost struct {
	engineS  float64 // extensor.Run
	sweepS   float64 // extensor.BestStaticShape (static variants only)
	retimeS  float64 // Retime, K=1
	batch12S float64 // RetimeBatch, K=12
	openS    float64 // OpenTrace
}

// engineOptions reconstructs extensor's private (variant, options) →
// accel.EngineOptions mapping for a run with a pinned static shape.
// engineCell's equality guard fails the run if it drifts.
func engineOptions(v extensor.Variant, opt extensor.Options) accel.EngineOptions {
	capA, capB, capO := opt.Partition.Split(opt.Machine.GlobalBuffer)
	eo := accel.EngineOptions{
		Machine: opt.Machine,
		CapA:    capA, CapB: capB, CapO: capO,
		Intersect: opt.Intersect,
		Extractor: opt.Extractor,
	}
	switch v {
	case extensor.Original:
		eo.LoopOrder = []int{accel.DimI, accel.DimJ, accel.DimK}
		eo.Strategy = core.Static
		eo.Intersect = sim.SkipBased
		eo.Extractor = extractor.IdealExtractor
		eo.InitialSize = opt.StaticShape
	case extensor.OP:
		eo.LoopOrder = []int{accel.DimJ, accel.DimK, accel.DimI}
		eo.Strategy = core.Static
		eo.Extractor = extractor.IdealExtractor
		eo.InitialSize = opt.StaticShape
	case extensor.OPDRT:
		eo.LoopOrder = []int{accel.DimJ, accel.DimK, accel.DimI}
		eo.Strategy = opt.Strategy
		eo.InitialSize = opt.InitialSize
		if !opt.SingleLevel {
			pa, pb, po := opt.Partition.Split(opt.Machine.PEBuffer)
			eo.PELevel = &accel.PELevelOptions{
				CapA: pa, CapB: pb, CapO: po,
				LoopOrder: []int{accel.DimK, accel.DimI, accel.DimJ},
				Strategy:  opt.Strategy,
			}
		}
	}
	return eo
}

// retimeGrid is fig12's (bandwidth × intersection unit) grid around one
// pricing configuration, in fig12's order.
func retimeGrid(base accel.RetimeConfig) []accel.RetimeConfig {
	var out []accel.RetimeConfig
	for _, mult := range []float64{1, 2, 4, 8} {
		for _, kind := range []sim.IntersectKind{sim.SkipBased, sim.Parallel, sim.SerialOptimal} {
			c := base
			c.Machine.DRAMBandwidth *= mult
			c.Intersect = kind
			out = append(out, c)
		}
	}
	return out
}

// engineCell replays one extensor run: the static-shape sweep for an
// unpinned S-U-C variant, the engine run itself, with breakdown the task
// extraction and restricted kernel over the run's schedule, its
// recording, retiming at K=1, 2 and 12, and the trace file round trip.
func (p *replayer) engineCell(v extensor.Variant, w *accel.Workload, opt extensor.Options, breakdown bool) (cellCost, error) {
	var cc cellCost
	if v != extensor.OPDRT && opt.StaticShape == nil {
		so := opt
		so.Parallel = 1
		t0 := time.Now()
		shape, err := extensor.BestStaticShape(v, w, so)
		if err != nil {
			return cc, err
		}
		cc.sweepS = secs(t0)
		p.l.sweepS += cc.sweepS
		opt.StaticShape = shape
	}
	// The engine run goes first, on a collected heap, so the replay's own
	// garbage (recorded traces, task lists) does not tax it.
	runtime.GC()
	t0 := time.Now()
	want, err := extensor.Run(v, w, opt)
	if err != nil {
		return cc, err
	}
	cc.engineS = secs(t0)
	p.l.engineS += cc.engineS

	eo := engineOptions(v, opt)
	if breakdown {
		layerS, err := p.extractAndRestrict(w, eo)
		if err != nil {
			return cc, err
		}
		p.l.engineSelfS += cc.engineS - layerS
	}

	t0 = time.Now()
	tr, err := accel.RecordTasks(w, eo)
	if err != nil {
		return cc, err
	}
	p.l.recordS += secs(t0)

	price := accel.RetimeOptions{Machine: eo.Machine, Intersect: eo.Intersect, Extractor: eo.Extractor}
	t0 = time.Now()
	got := accel.Retime(tr, price)
	cc.retimeS = secs(t0)
	p.l.retimeS += cc.retimeS
	n := int64(tr.NumTasks())
	p.l.retimeTasks += n
	p.check(got == want, "%s/%v: reconstructed engine options give %+v, extensor.Run gives %+v", w.Name, v, got, want)

	grid := retimeGrid(accel.RetimeConfig{Machine: eo.Machine, Intersect: eo.Intersect, Extractor: eo.Extractor})
	t0 = time.Now()
	batch := tr.RetimeBatch(grid)
	cc.batch12S = secs(t0)
	p.l.batch12S += cc.batch12S
	p.l.batch12Units += n * int64(len(grid))
	for i, g := range grid {
		if g.Machine == eo.Machine && g.Intersect == eo.Intersect {
			p.check(batch[i] == want, "%s/%v: RetimeBatch differs from extensor.Run", w.Name, v)
		}
	}
	t0 = time.Now()
	tr.RetimeBatch(grid[:2])
	p.l.batch2S += secs(t0)
	p.l.batch2Units += 2 * n

	path := filepath.Join(p.dir, "replay.drtt")
	t0 = time.Now()
	if err := accel.WriteTraceFile(path, tr); err != nil {
		return cc, err
	}
	p.l.writeS += secs(t0)
	size := tr.TraceBinarySize()
	p.l.writeBytes += size
	t0 = time.Now()
	view, err := accel.OpenTrace(path)
	if err != nil {
		return cc, err
	}
	cc.openS = secs(t0)
	p.l.openS += cc.openS
	p.l.openBytes += size
	p.l.opens++
	if view.Mapped() {
		p.l.mapped++
	}
	p.check(view.Retime(price) == want, "%s/%v: trace file round trip retimes differently", w.Name, v)
	if err := view.Close(); err != nil {
		return cc, err
	}
	return cc, os.Remove(path)
}

// extractAndRestrict replays the engine's task extraction (outer level,
// then the PE level re-windowed per non-empty outer task) and the
// restricted kernel over every non-empty task, returning their seconds.
// The enumerators do not allocate per task (core's TestNextAllocFree), so
// the PE loop's allocations are the kernel's.
func (p *replayer) extractAndRestrict(w *accel.Workload, eo accel.EngineOptions) (float64, error) {
	mt := w.MicroTile
	span := func(r core.Range) kernels.Range { return kernels.Range{Lo: r.Lo * mt, Hi: r.Hi * mt} }
	restrict := func(r [3]core.Range, spa *kernels.SPA) {
		res := w.Restricted(span(r[accel.DimI]), span(r[accel.DimK]), span(r[accel.DimJ]), spa)
		p.l.restrictedCalls++
		p.l.restrictedMACCs += res.MACCs
	}

	t0 := time.Now()
	e, err := core.NewEnumerator(w.Kernel(eo.CapA, eo.CapB), &core.Config{
		LoopOrder: eo.LoopOrder, Strategy: eo.Strategy, InitialSize: eo.InitialSize, GrowStep: eo.GrowStep,
	})
	if err != nil {
		return 0, err
	}
	var outer [][3]core.Range
	for {
		t, ok, err := e.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		p.l.tasks++
		if t.Empty {
			p.l.emptyTasks++
			continue
		}
		outer = append(outer, [3]core.Range{t.Ranges[0], t.Ranges[1], t.Ranges[2]})
	}
	extractS := secs(t0)
	st := e.CacheStats()
	p.l.boxHits += st.BoxHits
	p.l.boxMisses += st.BoxMisses

	spa := kernels.NewSPA(w.BCols())
	m0, t0 := readUsage().alloc, time.Now()
	for _, r := range outer {
		restrict(r, spa)
	}
	restrictS := secs(t0)
	p.l.restrictedAlloc += readUsage().alloc - m0

	var peS float64
	if pl := eo.PELevel; pl != nil {
		t0 = time.Now()
		pe, err := core.NewEnumerator(w.Kernel(pl.CapA, pl.CapB), &core.Config{LoopOrder: pl.LoopOrder, Strategy: pl.Strategy})
		if err != nil {
			return 0, err
		}
		peS += secs(t0)
		var subs [][3]core.Range
		m0 = readUsage().alloc
		for _, o := range outer {
			t0 = time.Now()
			if err := pe.Reset(o[:]); err != nil {
				return 0, err
			}
			subs = subs[:0]
			for {
				t, ok, err := pe.Next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				p.l.peTasks++
				if t.Empty {
					p.l.emptyTasks++
					continue
				}
				subs = append(subs, [3]core.Range{t.Ranges[0], t.Ranges[1], t.Ranges[2]})
			}
			t1 := time.Now()
			peS += t1.Sub(t0).Seconds()
			for _, r := range subs {
				restrict(r, spa)
			}
			restrictS += secs(t1)
		}
		p.l.restrictedAlloc += readUsage().alloc - m0
		st := pe.CacheStats()
		p.l.boxHits += st.BoxHits
		p.l.boxMisses += st.BoxMisses
	}
	p.l.extractS += extractS
	p.l.extractPES += peS
	p.l.restrictedS += restrictS
	return extractS + peS + restrictS, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func (p *replayer) metrics() map[string]metric {
	l := &p.l
	return map[string]metric{
		"gen.s":                                  {l.genS, "s"},
		"gen.ns_per_nnz":                         {ratio(l.genS*1e9, float64(l.genNNZ)), "ns/nnz"},
		"kernels.gustavson.s":                    {l.gustS, "s"},
		"kernels.gustavson.ns_per_macc":          {ratio(l.gustS*1e9, float64(l.gustMACCs)), "ns/macc"},
		"kernels.gustavson.alloc_mb":             {float64(l.gustAlloc) / 1e6, "MB"},
		"tiling.grid.s":                          {l.gridS, "s"},
		"tiling.grid.ns_per_nnz":                 {ratio(l.gridS*1e9, float64(l.gridNNZ)), "ns/nnz"},
		"core.extract.s":                         {l.extractS, "s"},
		"core.extract_pe.s":                      {l.extractPES, "s"},
		"core.tasks":                             {float64(l.tasks), "count"},
		"core.pe_subtasks":                       {float64(l.peTasks), "count"},
		"core.extract.ns_per_task":               {ratio(l.extractS*1e9, float64(l.tasks)), "ns/task"},
		"core.empty_frac":                        {ratio(float64(l.emptyTasks), float64(l.tasks+l.peTasks)), "frac"},
		"core.boxcache.hit_frac":                 {ratio(float64(l.boxHits), float64(l.boxHits+l.boxMisses)), "frac"},
		"kernels.restricted.s":                   {l.restrictedS, "s"},
		"kernels.restricted.calls":               {float64(l.restrictedCalls), "count"},
		"kernels.restricted.ns_per_macc":         {ratio(l.restrictedS*1e9, float64(l.restrictedMACCs)), "ns/macc"},
		"kernels.restricted.alloc_mb":            {float64(l.restrictedAlloc) / 1e6, "MB"},
		"accel.engine.s":                         {l.engineS, "s"},
		"accel.engine.self_s":                    {l.engineSelfS, "s"},
		"accel.record.overhead_frac":             {ratio(l.recordS, l.engineS) - 1, "frac"},
		"extensor.static_sweep.s":                {l.sweepS, "s"},
		"accel.retime.ns_per_task":               {ratio(l.retimeS*1e9, float64(l.retimeTasks)), "ns/task"},
		"accel.retime_batch.ns_per_task_config":  {ratio(l.batch12S*1e9, float64(l.batch12Units)), "ns/task/config"},
		"accel.retime_batch2.ns_per_task_config": {ratio(l.batch2S*1e9, float64(l.batch2Units)), "ns/task/config"},
		"accel.retime.s":                         {l.retimeS + l.batch12S + l.batch2S, "s"},
		"accel.trace_write.mb_per_s":             {ratio(float64(l.writeBytes)/1e6, l.writeS), "MB/s"},
		"accel.trace_open.mb_per_s":              {ratio(float64(l.openBytes)/1e6, l.openS), "MB/s"},
		"accel.trace_open.mapped_frac":           {ratio(float64(l.mapped), float64(l.opens)), "frac"},
		"exp.cell_p50_ms":                        {percentile(p.cells, 0.5) * 1e3, "ms"},
		"exp.cell_p90_ms":                        {percentile(p.cells, 0.9) * 1e3, "ms"},
		"exp.cell_max_ms":                        {percentile(p.cells, 1) * 1e3, "ms"},
		"cpuref.s":                               {l.cpurefS, "s"},
	}
}
