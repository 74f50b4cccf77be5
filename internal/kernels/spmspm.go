// Package kernels implements exact reference implementations of the
// paper's tensor kernels: SpMSpM under all three dataflows (row-wise
// Gustavson, inner product, outer product), range-restricted task-local
// SpMSpM used by the accelerator simulators, and the higher-order Gram
// kernel. Each returns both the result and the effectual-work statistics
// (MACC counts) that the paper's arithmetic-intensity metric is built on.
package kernels

import (
	"fmt"

	"drt/internal/par"
	"drt/internal/tensor"
)

// Stats records the effectual work of a kernel execution.
type Stats struct {
	MACCs     int64 // effectual multiply-accumulates
	OutputNNZ int64 // stored non-zeros in the result
}

// Gustavson computes Z = A·B row-wise (the MatRaptor/GAMMA dataflow) using
// a sparse accumulator per output row. It is the primary reference
// implementation: the simulators validate their output sparsity against it,
// mirroring the paper's validation against Intel MKL.
func Gustavson[T tensor.Ix](a, b *tensor.Mat[T]) (*tensor.CSR, Stats) {
	return gustavson(a, b, 1)
}

// GustavsonParallel is Gustavson over row blocks mapped across the worker
// pool, each worker with its own SPA scratch. Every block writes its rows
// in place into the one presized result, and each row's accumulation order
// is the sequential kernel's, so the result — values included — is
// bit-identical to Gustavson. workers < 1 selects one per CPU.
func GustavsonParallel[T tensor.Ix](a, b *tensor.Mat[T], workers int) (*tensor.CSR, Stats) {
	return gustavson(a, b, par.Workers(workers))
}

// gustavson is the two-pass product behind both entry points. The
// symbolic pass counts each row's distinct columns with the SPA marker —
// an upper bound on the row's stored non-zeros, exact unless values
// cancel — and a prefix sum turns the counts into row offsets, so Idx and
// Val are allocated once at their final size. The numeric pass then
// accumulates each row and writes it in place at its offset. Rows whose
// values cancel leave a gap after their last point, closed afterwards by
// sliding the later rows down. The sequential kernel is one block; with
// more workers the row space is over-decomposed into blocks so an unlucky
// dense block doesn't serialize the tail.
func gustavson[T tensor.Ix](a, b *tensor.Mat[T], workers int) (*tensor.CSR, Stats) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("kernels: spmspm shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nb := 1
	if workers > 1 && a.Rows >= 2 {
		nb = min(workers*4, a.Rows)
	} else {
		workers = 1
	}
	z := &tensor.CSR{Rows: a.Rows, Cols: b.Cols, Ptr: make([]int, a.Rows+1)}
	// Per-worker SPA scratch, reused across blocks and passes: at most
	// workers are ever in flight, so the free list never blocks.
	free := make(chan *SPA, workers)
	getSPA := func() *SPA {
		select {
		case spa := <-free:
			return spa
		default:
			return NewSPA(b.Cols)
		}
	}
	rowsOf := func(bi int) (int, int) { return bi * a.Rows / nb, (bi + 1) * a.Rows / nb }
	blocks, _ := par.Map(workers, nb, func(bi int) (symbolic, error) {
		spa := getSPA()
		r0, r1 := rowsOf(bi)
		sym := symbolicRows(a, b, r0, r1, spa, z.Ptr[r0+1:r1+1])
		free <- spa
		return sym, nil
	})
	var st Stats
	var widest symbolic
	for _, blk := range blocks {
		st.MACCs += blk.maccs
		widest.outCols = max(widest.outCols, blk.outCols)
		widest.fibers = max(widest.fibers, blk.fibers)
	}
	for i := 0; i < a.Rows; i++ {
		z.Ptr[i+1] += z.Ptr[i]
	}
	nnz := z.Ptr[a.Rows]
	z.Idx = make([]int, nnz)
	z.Val = make([]float64, nnz)
	cancelled, _ := par.Map(workers, nb, func(bi int) (bool, error) {
		spa := getSPA()
		spa.reserve(widest.outCols, widest.fibers)
		r0, r1 := rowsOf(bi)
		c := numericRows(a, b, r0, r1, spa, z)
		free <- spa
		return c, nil
	})
	for _, c := range cancelled {
		if c {
			compactRows(z)
			break
		}
	}
	st.OutputNNZ = int64(z.NNZ())
	return z, st
}

// symbolic is one block's symbolic-pass summary: its MACCs and the widest
// row it holds, in distinct output columns and in A fibers.
type symbolic struct {
	maccs           int64
	outCols, fibers int
}

// symbolicRows counts the distinct output columns of rows [r0, r1) of A·B
// into cnt[i-r0] without touching a value.
func symbolicRows[T tensor.Ix](a, b *tensor.Mat[T], r0, r1 int, spa *SPA, cnt []int) symbolic {
	var sym symbolic
	mark := spa.gen
	for i := r0; i < r1; i++ {
		spa.cur++
		cur := spa.cur
		n := 0
		ks := a.Idx[a.Ptr[i]:a.Ptr[i+1]]
		for _, k := range ks {
			js := b.Idx[b.Ptr[k]:b.Ptr[k+1]]
			sym.maccs += int64(len(js))
			for _, j := range js {
				if mark[j] != cur {
					mark[j] = cur
					n++
				}
			}
		}
		cnt[i-r0] = n
		sym.outCols = max(sym.outCols, n)
		sym.fibers = max(sym.fibers, len(ks))
	}
	return sym
}

// numericRows accumulates rows [r0, r1) of A·B and writes each at its
// presized offset z.Ptr[i]. Per-row emission uses the SPA's sorted-run
// merge, so the inner loops are free of comparison sorts and, with the
// scratch reserved, of allocations. A numerically cancelled point is not
// stored; the row then ends before z.Ptr[i+1] and the gap is marked with
// a column of -1 for compactRows, which numericRows reports by returning
// true.
func numericRows[T tensor.Ix](a, b *tensor.Mat[T], r0, r1 int, spa *SPA, z *tensor.CSR) (cancelled bool) {
	for i := r0; i < r1; i++ {
		spa.Reset()
		fa := a.Row(i)
		for p, k := range fa.Coords {
			av := fa.Vals[p]
			fb := b.Row(int(k))
			for q, j := range fb.Coords {
				spa.Add(int(j), av*fb.Vals[q])
			}
		}
		w, end := z.Ptr[i], z.Ptr[i+1]
		for _, j := range spa.SortedCols() {
			if spa.acc[j] == 0 {
				continue // numerically cancelled
			}
			z.Idx[w] = j
			z.Val[w] = spa.acc[j]
			w++
		}
		if w < end {
			z.Idx[w] = -1
			cancelled = true
		}
	}
	return cancelled
}

// compactRows closes the gaps numericRows leaves after rows whose values
// cancelled, sliding every later row down in one pass and trimming Idx
// and Val to the stored points.
func compactRows(z *tensor.CSR) {
	w, s := 0, 0
	for i := 0; i < z.Rows; i++ {
		e := z.Ptr[i+1]
		n := s
		for n < e && z.Idx[n] >= 0 {
			n++
		}
		copy(z.Idx[w:], z.Idx[s:n])
		copy(z.Val[w:], z.Val[s:n])
		w += n - s
		s = e
		z.Ptr[i+1] = w
	}
	z.Idx, z.Val = z.Idx[:w], z.Val[:w]
}

// InnerProduct computes Z = A·B with the output-stationary dataflow: a dot
// product (coordinate intersection) per output point. It additionally
// returns the intersection statistics that drive ExTensor's intersection
// unit cycle model. bT must be the transpose of B (so each column of B is a
// contiguous fiber).
func InnerProduct(a, bT *tensor.CSR) (*tensor.CSR, Stats, tensor.IntersectStats) {
	if a.Cols != bT.Cols {
		panic(fmt.Sprintf("kernels: inner product shape mismatch: A is %dx%d, Bᵀ is %dx%d", a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	var st Stats
	var ist tensor.IntersectStats
	z := &tensor.CSR{Rows: a.Rows, Cols: bT.Rows, Ptr: make([]int, a.Rows+1)}
	// Precompute the occupied rows of Bᵀ once instead of re-scanning all
	// bT.Rows (including the empty ones) for every row of A — on
	// hyper-sparse operands almost every candidate column is empty.
	occ := make([]int, 0, bT.Rows)
	for j := 0; j < bT.Rows; j++ {
		if bT.Ptr[j+1] > bT.Ptr[j] {
			occ = append(occ, j)
		}
	}
	for i := 0; i < a.Rows; i++ {
		fa := a.Row(i)
		if fa.Len() == 0 {
			z.Ptr[i+1] = len(z.Idx)
			continue
		}
		for _, j := range occ {
			fb := bT.Row(j)
			v, s := tensor.Dot(fa, fb)
			ist.Comparisons += s.Comparisons
			ist.Matches += s.Matches
			st.MACCs += int64(s.Matches)
			if v != 0 {
				z.Idx = append(z.Idx, j)
				z.Val = append(z.Val, v)
			}
		}
		z.Ptr[i+1] = len(z.Idx)
	}
	st.OutputNNZ = int64(z.NNZ())
	return z, st, ist
}

// OuterProduct computes Z = A·B with the contraction-stationary dataflow
// (OuterSPACE/SpArch): for each k, the outer product of A's column k and
// B's row k produces a rank-1 partial, and all partials are merged. aT must
// be the transpose of A. The returned merge count is the number of partial
// products inserted, i.e. the multiply-phase output volume before merging.
func OuterProduct(aT, b *tensor.CSR) (*tensor.CSR, Stats, int64) {
	if aT.Rows != b.Rows {
		panic(fmt.Sprintf("kernels: outer product shape mismatch: Aᵀ is %dx%d, B is %dx%d", aT.Rows, aT.Cols, b.Rows, b.Cols))
	}
	var st Stats
	var partials int64
	out := tensor.NewCOO(aT.Cols, b.Cols)
	for k := 0; k < aT.Rows; k++ {
		fa := aT.Row(k) // column k of A: row coordinates i
		fb := b.Row(k)  // row k of B: column coordinates j
		for p, i := range fa.Coords {
			for q, j := range fb.Coords {
				st.MACCs++
				partials++
				out.Append(i, j, fa.Vals[p]*fb.Vals[q])
			}
		}
	}
	z := tensor.FromCOO(out)
	st.OutputNNZ = int64(z.NNZ())
	return z, st, partials
}

// EffectualMACCs returns the number of effectual multiply-accumulates of
// A·B without materializing the product: Σ_k nnz(A·,k)·nnz(Bk,·). aT must
// be the transpose of A. The paper notes this count is dataflow-invariant.
func EffectualMACCs(aT, b *tensor.CSR) int64 {
	if aT.Rows != b.Rows {
		panic("kernels: EffectualMACCs shape mismatch")
	}
	var n int64
	for k := 0; k < aT.Rows; k++ {
		n += int64(aT.Ptr[k+1]-aT.Ptr[k]) * int64(b.Ptr[k+1]-b.Ptr[k])
	}
	return n
}
