package kernels

import (
	"math/rand"
	"sort"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// TestGustavsonParallelBitIdentical pins the parallel reference kernel to
// the sequential one exactly — same structure, bit-identical values, same
// counters — at several worker counts and shapes. Determinism holds because
// each output row is still accumulated in the same order; blocks only
// partition the row space.
func TestGustavsonParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		m := rng.Intn(120) + 1
		k := rng.Intn(90) + 1
		n := rng.Intn(100) + 1
		a := gen.Uniform(m, k, rng.Intn(800)+1, rng.Int63())
		b := gen.Uniform(k, n, rng.Intn(800)+1, rng.Int63())
		want, wantSt := Gustavson(a, b)
		for _, workers := range []int{2, 3, 8} {
			got, gotSt := GustavsonParallel(a, b, workers)
			if !got.Equal(want) {
				t.Fatalf("trial %d: %d workers: result diverges from sequential", trial, workers)
			}
			if gotSt != wantSt {
				t.Fatalf("trial %d: %d workers: stats %+v, sequential %+v", trial, workers, gotSt, wantSt)
			}
		}
	}
	// Degenerate shapes: empty product and a single row.
	a := gen.Uniform(1, 5, 3, 1)
	b := gen.Uniform(5, 4, 6, 2)
	if got, _ := GustavsonParallel(a, b, 4); !got.Equal(mustGustavson(a, b)) {
		t.Fatal("single-row matrix diverges")
	}
	e := gen.Uniform(30, 30, 0, 3)
	if got, _ := GustavsonParallel(e, e, 4); !got.Equal(mustGustavson(e, e)) {
		t.Fatal("empty matrix diverges")
	}
}

func mustGustavson(a, b *tensor.CSR) *tensor.CSR {
	z, _ := Gustavson(a, b)
	return z
}

// TestGramParallelBitIdentical pins GramParallel to Gram exactly, including
// the symmetric-MACC counting convention.
func TestGramParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 6; trial++ {
		x := gen.Tensor3(rng.Intn(24)+2, rng.Intn(24)+2, rng.Intn(24)+2, rng.Intn(600)+1, rng.Int63())
		want, wantSt := Gram(x)
		for _, workers := range []int{2, 5} {
			got, gotSt := GramParallel(x, workers)
			if !got.Equal(want) {
				t.Fatalf("trial %d: %d workers: Gram result diverges", trial, workers)
			}
			if gotSt != wantSt {
				t.Fatalf("trial %d: %d workers: stats %+v, sequential %+v", trial, workers, gotSt, wantSt)
			}
		}
	}
}

// TestSPASortedCols drives the sorted-run merge against a sort.Ints oracle
// across random insertion orders and repeated epochs (the scratch is reused
// without reallocation, so later epochs exercise dirty buffers).
func TestSPASortedCols(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spa := NewSPA(500)
	for epoch := 0; epoch < 50; epoch++ {
		spa.Reset()
		n := rng.Intn(120)
		want := make([]int, 0, n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			j := rng.Intn(500)
			spa.Add(j, rng.Float64())
			if !seen[j] {
				seen[j] = true
				want = append(want, j)
			}
		}
		sort.Ints(want)
		got := spa.SortedCols()
		if len(got) != len(want) {
			t.Fatalf("epoch %d: %d cols, want %d", epoch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: cols[%d] = %d, want %d", epoch, i, got[i], want[i])
			}
		}
		// SortedCols must be idempotent within an epoch.
		again := spa.SortedCols()
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("epoch %d: second SortedCols diverges at %d", epoch, i)
			}
		}
	}
}

// TestRestrictedAllocs enforces the allocation-free engine hot path: after
// one warm-up call has grown the SPA scratch, RestrictedGustavson must not
// allocate at all.
func TestRestrictedAllocs(t *testing.T) {
	a := gen.Uniform(64, 64, 900, 31)
	b := gen.Uniform(64, 64, 900, 32)
	spa := NewSPA(b.Cols)
	iR, kR, jR := Range{0, a.Rows}, Range{0, a.Cols}, Range{0, b.Cols}
	RestrictedGustavson(a, b, nil, iR, kR, jR, spa) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() {
		RestrictedGustavson(a, b, nil, iR, kR, jR, spa)
	})
	if allocs != 0 {
		t.Fatalf("RestrictedGustavson allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
}

// TestDrainAllocFree does the same for the full SPA drain used by the
// library API's row emission.
func TestDrainAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	spa := NewSPA(256)
	fill := func() {
		spa.Reset()
		for i := 0; i < 100; i++ {
			spa.Add(rng.Intn(256), rng.Float64())
		}
	}
	fill()
	spa.Drain() // warm
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		spa.Drain()
	})
	if allocs != 0 {
		t.Fatalf("SPA fill+drain allocates %.1f objects per call with warm scratch, want 0", allocs)
	}
}
