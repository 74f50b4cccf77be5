package kernels

import (
	"drt/internal/obs"
	"drt/internal/tensor"
)

// Range is a half-open coordinate interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of coordinates in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Contains reports whether c lies in the range.
func (r Range) Contains(c int) bool { return c >= r.Lo && c < r.Hi }

// RowWork records the effectual work one output row contributes within a
// task; the accelerator models round-robin rows across PEs and take the
// maximum per-PE sum, so per-row granularity is what load balance needs.
type RowWork struct {
	Row    int
	MACCs  int64
	AElems int // A-row elements visited (intersection stream length)
	OutNNZ int // distinct output columns touched
}

// TaskResult holds the exact outcome of one Einsum task (Sec. 3,
// "Einsum task"): the partial-output points produced within the task's
// coordinate ranges and the effectual work performed.
type TaskResult struct {
	MACCs     int64
	ScannedA  int64 // total A elements visited (drives intersection cycles)
	OutputNNZ int64 // distinct (i,j) partial-output points touched
	Rows      []RowWork
}

// RestrictedGustavson computes the effectual work of A·B limited to the
// task ranges i∈iR, k∈kR, j∈jR (Equation 2 of the paper), returning exact
// per-task MACC and partial-output counts. The union over a task partition
// of the iteration space equals the full kernel, which the simulators rely
// on for exact traffic accounting.
//
// The simulators price a task from integer counts only, so the kernel
// never touches a value: MACCs and scanned A elements are sums of window
// lengths, and a row's partial outputs are its distinct j, counted with
// the SPA's generation-stamped marker. A touched column counts even when
// its products would cancel, as in the accumulating kernel this replaces.
//
// bx, when non-nil, is the RowIndex of b and serves the B-row window
// lookups; nil falls back to Mat.RowRange. The spa scratch must have width
// ≥ b.Cols and is reused across calls; pass nil to allocate a fresh one.
// The returned Rows slice aliases the scratch and is valid only until the
// next call with the same spa — the simulator task loops consume it before
// issuing the next task, which keeps the whole stream allocation-free
// (pinned by TestRestrictedAllocs). The spa also keeps the B-row windows
// of consecutive calls on the same b, bx, kR and jR (the task stream of an
// I-innermost loop order), so b must not be modified in place between
// calls sharing a spa.
func RestrictedGustavson[T tensor.Ix](a, b *tensor.Mat[T], bx *tensor.RowIndex, iR, kR, jR Range, spa *SPA) TaskResult {
	if spa == nil {
		spa = NewSPA(b.Cols)
	}
	var res TaskResult
	rows := spa.rows[:0]
	// Memoize the B-row window per contracted coordinate: every row of the
	// i-range probes its k columns against the same j-window, and within a
	// tile the rows hit largely the same columns, so the second and later
	// probes of a k become one scratch load instead of an index lookup.
	// The windows stay valid while b and the (k, j) windows do, which
	// carries them across the tasks of one (j, k) tile column. Otherwise
	// the generation stamp makes entries from earlier tasks (any operands,
	// any windows) unreadable without re-zeroing.
	kw := kR.Hi - kR.Lo
	if kw < 0 {
		kw = 0
	}
	if kR != spa.memoK || jR != spa.memoJ || bx != spa.memoBX || any(b) != spa.memoB {
		spa.memoK, spa.memoJ, spa.memoBX, spa.memoB = kR, jR, bx, b
		spa.kCur++
	}
	if cap(spa.kMemo) < kw {
		spa.kMemo = make([]bWindow, kw)
		spa.kCur = 1
	}
	memo, kCur := spa.kMemo[:kw], spa.kCur
	mark := spa.gen
	for i := iR.Lo; i < iR.Hi && i < a.Rows; i++ {
		if i < 0 {
			continue
		}
		lo, hi := a.RowRange(i, kR.Lo, kR.Hi)
		if lo == hi {
			continue
		}
		spa.cur++
		cur := spa.cur
		n := 0
		var rowMACCs int64
		for p := lo; p < hi; p++ {
			k := int(a.Idx[p])
			var blo, bhi int
			if m := &memo[k-kR.Lo]; m.gen == kCur {
				blo, bhi = m.lo, m.hi
			} else {
				blo, bhi = b.IndexedRowRange(bx, k, jR.Lo, jR.Hi)
				*m = bWindow{gen: kCur, lo: blo, hi: bhi}
			}
			rowMACCs += int64(bhi - blo)
			if hi-lo == 1 {
				n = bhi - blo // a single fiber's columns are distinct
				break
			}
			for q := blo; q < bhi; q++ {
				// An unconditional store lets the compare compile branch-free.
				j := b.Idx[q]
				if mark[j] != cur {
					n++
				}
				mark[j] = cur
			}
		}
		res.MACCs += rowMACCs
		res.ScannedA += int64(hi - lo)
		if rowMACCs > 0 {
			res.OutputNNZ += int64(n)
			rows = append(rows, RowWork{Row: i, MACCs: rowMACCs, AElems: hi - lo, OutNNZ: n})
		}
	}
	spa.rows = rows
	res.Rows = rows
	return res
}

// Record publishes the task's effectual-work distribution into the
// recorder's histograms: per-task MACCs, intersection stream length,
// partial-output points and active rows. rec may be nil; the call is
// allocation-free on the no-op path.
func (r *TaskResult) Record(rec obs.Recorder) {
	if rec == nil {
		return
	}
	rec.Observe("kernel.task_maccs", float64(r.MACCs))
	rec.Observe("kernel.task_scanned_a", float64(r.ScannedA))
	rec.Observe("kernel.task_output_nnz", float64(r.OutputNNZ))
	rec.Observe("kernel.task_rows", float64(len(r.Rows)))
}

// SPA is a dense sparse accumulator with generation-counter clearing,
// reused across tasks to avoid re-zeroing. Columns are accumulated fiber
// by fiber, each fiber sorted, so the touched-column list is a sequence of
// sorted runs; emission merges the runs instead of comparison-sorting,
// keeping the hot loops free of per-row allocations. The count-only
// kernels (RestrictedGustavson, the reference product's symbolic pass)
// use the generation stamps alone as a distinct-column marker.
type SPA struct {
	acc  []float64
	gen  []int
	cur  int
	cols []int
	// runs holds the interior boundaries of the ascending runs in cols: a
	// new run starts whenever an appended column is below its predecessor.
	runs []int
	// Merge and drain scratch, grown once and reused.
	buf     []int
	bounds  []int
	bounds2 []int
	vals    []float64
	// rows is the RestrictedGustavson per-task RowWork scratch, pooled
	// here so both engine call sites share one reusable buffer.
	rows []RowWork
	// kMemo memoizes the B-row window per contracted coordinate for the
	// RestrictedGustavson calls on the same B operand (memoB), index
	// (memoBX) and contracted and output windows (memoK, memoJ); entries
	// are generation-stamped (kCur is bumped when any of those changes) so
	// stale windows are never read.
	kMemo        []bWindow
	kCur         int
	memoK, memoJ Range
	memoBX       *tensor.RowIndex
	memoB        any
}

// bWindow is one memoized B-row window [lo, hi) and its generation.
type bWindow struct {
	gen, lo, hi int
}

// NewSPA returns an accumulator covering column coordinates [0, width).
func NewSPA(width int) *SPA {
	return &SPA{acc: make([]float64, width), gen: make([]int, width)}
}

// Reset begins a new accumulation epoch in O(1).
func (s *SPA) Reset() {
	s.cur++
	s.cols = s.cols[:0]
	s.runs = s.runs[:0]
}

// Add accumulates v into column j.
func (s *SPA) Add(j int, v float64) {
	if s.gen[j] != s.cur {
		s.gen[j] = s.cur
		s.acc[j] = 0
		if n := len(s.cols); n > 0 && j < s.cols[n-1] {
			s.runs = append(s.runs, n)
		}
		s.cols = append(s.cols, j)
	}
	s.acc[j] += v
}

// reserve grows the scratch so a row of up to n distinct columns gathered
// from up to fibers sorted fibers accumulates and drains its sorted
// columns without allocating.
func (s *SPA) reserve(n, fibers int) {
	s.cols, s.buf = reserveInts(s.cols, n), reserveInts(s.buf, n)
	s.runs = reserveInts(s.runs, fibers)
	s.bounds, s.bounds2 = reserveInts(s.bounds, fibers+2), reserveInts(s.bounds2, fibers+2)
}

// reserveInts returns s, or an empty slice of capacity n when s is smaller.
func reserveInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, 0, n)
	}
	return s
}

// Value returns the accumulated value of column j this epoch (0 when the
// column was not touched).
func (s *SPA) Value(j int) float64 {
	if s.gen[j] != s.cur {
		return 0
	}
	return s.acc[j]
}

// Touched returns the number of distinct columns accumulated this epoch.
func (s *SPA) Touched() int { return len(s.cols) }

// SortedCols returns the distinct columns touched this epoch in ascending
// order by merging the accumulation's sorted runs pairwise — O(n·log runs)
// with no comparison sort and no allocation once the scratch has warmed
// up. The returned slice aliases the accumulator and is valid until the
// next Reset or Add.
func (s *SPA) SortedCols() []int {
	if len(s.runs) == 0 {
		return s.cols // single ascending run
	}
	n := len(s.cols)
	if cap(s.buf) < n {
		s.buf = make([]int, n)
	}
	src, dst := s.cols, s.buf[:n]
	b := append(s.bounds[:0], 0)
	b = append(b, s.runs...)
	b = append(b, n)
	nb := s.bounds2[:0]
	for len(b) > 2 {
		nb = nb[:0]
		nb = append(nb, 0)
		i := 0
		for ; i+2 < len(b); i += 2 {
			mergeInts(dst[b[i]:b[i+2]], src[b[i]:b[i+1]], src[b[i+1]:b[i+2]])
			nb = append(nb, b[i+2])
		}
		if i+1 < len(b) { // odd run out: carry it to the next round
			copy(dst[b[i]:b[i+1]], src[b[i]:b[i+1]])
			nb = append(nb, b[i+1])
		}
		src, dst = dst, src
		b, nb = nb, b
	}
	s.cols, s.buf = src, dst
	s.runs = s.runs[:0]
	s.bounds, s.bounds2 = b, nb
	return s.cols
}

// mergeInts merges two sorted, duplicate-free slices into dst
// (len(dst) == len(a)+len(b)).
func mergeInts(dst, a, b []int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Drain returns the sorted (column, value) pairs of the current epoch.
// Both slices alias the accumulator's scratch and are valid until the next
// Reset, Add or Drain.
func (s *SPA) Drain() ([]int, []float64) {
	cols := s.SortedCols()
	if cap(s.vals) < len(cols) {
		s.vals = make([]float64, len(cols))
	}
	vals := s.vals[:len(cols)]
	for p, j := range cols {
		vals[p] = s.acc[j]
	}
	return cols, vals
}
