package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// gustavsonOracle is the append-based reference product the presized
// two-pass kernel replaced: rows accumulate in the SPA in the same order
// and their non-zero points are appended to a growing result.
func gustavsonOracle[T tensor.Ix](a, b *tensor.Mat[T]) (*tensor.CSR, Stats) {
	z := &tensor.CSR{Rows: a.Rows, Cols: b.Cols, Ptr: make([]int, a.Rows+1)}
	spa := NewSPA(b.Cols)
	var st Stats
	for i := 0; i < a.Rows; i++ {
		spa.Reset()
		fa := a.Row(i)
		for p, k := range fa.Coords {
			fb := b.Row(int(k))
			st.MACCs += int64(fb.Len())
			for q, j := range fb.Coords {
				spa.Add(int(j), fa.Vals[p]*fb.Vals[q])
			}
		}
		for _, j := range spa.SortedCols() {
			if v := spa.Value(j); v != 0 {
				z.Idx = append(z.Idx, j)
				z.Val = append(z.Val, v)
			}
		}
		z.Ptr[i+1] = len(z.Idx)
	}
	st.OutputNNZ = int64(z.NNZ())
	return z, st
}

// sameBits reports whether two products have equal Ptr and Idx and
// bit-identical Val.
func sameBits(x, y *tensor.CSR) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols || len(x.Ptr) != len(y.Ptr) || len(x.Idx) != len(y.Idx) || len(x.Val) != len(y.Val) {
		return false
	}
	for i := range x.Ptr {
		if x.Ptr[i] != y.Ptr[i] {
			return false
		}
	}
	for p := range x.Idx {
		if x.Idx[p] != y.Idx[p] || math.Float64bits(x.Val[p]) != math.Float64bits(y.Val[p]) {
			return false
		}
	}
	return true
}

// checkGustavson compares the sequential kernel and the parallel kernel at
// 1 worker, one per CPU and an over-subscribed count with the oracle.
func checkGustavson[T tensor.Ix](t *testing.T, name string, a, b *tensor.Mat[T]) {
	t.Helper()
	want, wantSt := gustavsonOracle(a, b)
	run := map[string]func() (*tensor.CSR, Stats){
		"sequential": func() (*tensor.CSR, Stats) { return Gustavson(a, b) },
		"1 worker":   func() (*tensor.CSR, Stats) { return GustavsonParallel(a, b, 1) },
		"nproc":      func() (*tensor.CSR, Stats) { return GustavsonParallel(a, b, runtime.NumCPU()) },
		"5 workers":  func() (*tensor.CSR, Stats) { return GustavsonParallel(a, b, 5) },
	}
	for path, f := range run {
		got, st := f()
		if !sameBits(got, want) || st != wantSt {
			t.Fatalf("%s, %s: product or stats %+v differ from the append oracle's %+v", name, path, st, wantSt)
		}
	}
}

// TestGustavsonMatchesAppendOracle pins the presized product bit for bit
// to the append-based oracle at both index widths.
func TestGustavsonMatchesAppendOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(150)+1, rng.Intn(80)+1, rng.Intn(150)+1
		a := gen.Uniform(m, k, rng.Intn(m*k/3+1), rng.Int63())
		b := gen.Uniform(k, n, rng.Intn(k*n/3+1), rng.Int63())
		checkGustavson(t, "wide", a, b)
		checkGustavson(t, "compact", a.Compact(), b.Compact())
	}
}

// TestGustavsonCancellation covers rows whose values cancel exactly: B
// holds row pairs x and −x, so an A row [1, 1] over a pair stores only
// the columns outside the pair's overlap, and the rows after it slide
// down over the gap.
func TestGustavsonCancellation(t *testing.T) {
	small := tensor.NewCOO(2, 6)
	for _, j := range []int{0, 2, 4} {
		small.Append(0, j, float64(j+1))
	}
	for _, j := range []int{0, 2} {
		small.Append(1, j, -float64(j+1))
	}
	small.Append(1, 5, 7)
	ones := tensor.NewCOO(3, 2)
	ones.Append(0, 0, 1)
	ones.Append(0, 1, 1) // row 0: [1, 1] cancels columns 0 and 2
	ones.Append(1, 0, 2)
	ones.Append(2, 0, 1)
	ones.Append(2, 1, 1)
	a, b := tensor.FromCOO(ones), tensor.FromCOO(small)
	z, st := Gustavson(a, b)
	if z.Ptr[1] != 2 || z.NNZ() != 7 || st.MACCs != 15 {
		t.Fatalf("cancelling product: Ptr %v, nnz %d, MACCs %d", z.Ptr, z.NNZ(), st.MACCs)
	}
	checkGustavson(t, "fixed", a, b)

	// Random pairs: B row 2p+1 negates B row 2p on a random subset of its
	// columns, and integer values keep every cancellation exact.
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 10; trial++ {
		pairs, n, m := rng.Intn(20)+1, rng.Intn(60)+1, rng.Intn(200)+2
		bc := tensor.NewCOO(2*pairs, n)
		for p := 0; p < pairs; p++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) != 0 {
					continue
				}
				v := float64(rng.Intn(9) + 1)
				bc.Append(2*p, j, v)
				if rng.Intn(4) != 0 {
					bc.Append(2*p+1, j, -v)
				}
			}
		}
		ac := tensor.NewCOO(m, 2*pairs)
		for i := 0; i < m; i++ {
			for p := 0; p < pairs; p++ {
				if rng.Intn(pairs) == 0 {
					ac.Append(i, 2*p, 1)
					ac.Append(i, 2*p+1, 1)
				}
			}
		}
		a, b := tensor.FromCOO(ac), tensor.FromCOO(bc)
		checkGustavson(t, "pairs", a, b)
		checkGustavson(t, "pairs compact", a.Compact(), b.Compact())
	}
}

// TestGustavsonAllocsIndependentOfOutput pins the presizing: the
// sequential product allocates the same number of objects whatever its
// output size, since the result is sized once and the SPA scratch is
// reserved to the widest row up front.
func TestGustavsonAllocsIndependentOfOutput(t *testing.T) {
	allocs := func(rows, nnz int) float64 {
		a := gen.Uniform(rows, 300, nnz, 71)
		b := gen.Uniform(300, 400, 6*nnz/10, 72)
		return testing.AllocsPerRun(5, func() { Gustavson(a, b) })
	}
	small, large := allocs(50, 500), allocs(2000, 40000)
	if large > small {
		t.Fatalf("Gustavson makes %.0f allocations on a large product and %.0f on a small one", large, small)
	}
}
