package kernels

import (
	"math/rand"
	"reflect"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// restrictedOracle is the value-accumulating restricted kernel the
// count-only RestrictedGustavson replaced: every product goes through the
// SPA, B-row windows come from Mat.RowRange, and a row's partial outputs
// are the SPA's touched columns.
func restrictedOracle[T tensor.Ix](a, b *tensor.Mat[T], iR, kR, jR Range) TaskResult {
	spa := NewSPA(b.Cols)
	var res TaskResult
	for i := iR.Lo; i < iR.Hi && i < a.Rows; i++ {
		if i < 0 {
			continue
		}
		lo, hi := a.RowRange(i, kR.Lo, kR.Hi)
		if lo == hi {
			continue
		}
		spa.Reset()
		var rowMACCs int64
		for p := lo; p < hi; p++ {
			blo, bhi := b.RowRange(int(a.Idx[p]), jR.Lo, jR.Hi)
			rowMACCs += int64(bhi - blo)
			for q := blo; q < bhi; q++ {
				spa.Add(int(b.Idx[q]), a.Val[p]*b.Val[q])
			}
		}
		res.MACCs += rowMACCs
		res.ScannedA += int64(hi - lo)
		if n := spa.Touched(); n > 0 || rowMACCs > 0 {
			res.OutputNNZ += int64(n)
			res.Rows = append(res.Rows, RowWork{Row: i, MACCs: rowMACCs, AElems: hi - lo, OutNNZ: n})
		}
	}
	return res
}

// restrictedCase is one operand pair at one index width, with a scratch
// SPA per lookup path (plain RowRange and B's row index) that persists
// across the tasks it is checked on.
type restrictedCase[T tensor.Ix] struct {
	a, b *tensor.Mat[T]
	bx   *tensor.RowIndex
	spa  [2]*SPA
}

func newRestrictedCase[T tensor.Ix](a, b *tensor.Mat[T]) *restrictedCase[T] {
	return &restrictedCase[T]{a: a, b: b, bx: tensor.NewRowIndex(b), spa: [2]*SPA{NewSPA(b.Cols), NewSPA(b.Cols)}}
}

// check compares RestrictedGustavson on both lookup paths against the
// oracle on one task.
func (c *restrictedCase[T]) check(t *testing.T, iR, kR, jR Range) {
	t.Helper()
	want := restrictedOracle(c.a, c.b, iR, kR, jR)
	for p, x := range []*tensor.RowIndex{nil, c.bx} {
		got := RestrictedGustavson(c.a, c.b, x, iR, kR, jR, c.spa[p])
		if len(got.Rows) == 0 {
			got.Rows = nil // the scratch-backed empty slice
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %v×%v×%v (index %v): got %+v, oracle %+v", iR, kR, jR, x != nil, got, want)
		}
	}
}

// TestRestrictedMatchesOracle pins the count-only kernel to the
// accumulating oracle — every TaskResult field, Rows included — on random
// operands at both index widths, with rows long enough to be indexed, on
// random windows that overhang the operands or start below zero, and on
// whole grid partitions.
func TestRestrictedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		m, k, n := rng.Intn(60)+1, rng.Intn(60)+1, rng.Intn(200)+1
		a := gen.Uniform(m, k, rng.Intn(m*k/2+1)+1, rng.Int63())
		b := gen.Uniform(k, n, rng.Intn(k*n/2+1)+1, rng.Int63())
		if trial%3 == 0 { // tall-skinny shapes, as Fig. 7 multiplies them
			f := gen.TallSkinny(rng.Intn(400)+32, rng.Intn(12)+2, rng.Intn(800)+32, rng.Int63())
			a, b = f, f.Transpose()
			if trial%2 == 0 {
				a, b = b, a
			}
		}
		wide, compact := newRestrictedCase(a, b), newRestrictedCase(a.Compact(), b.Compact())
		window := func(extent int) Range {
			lo := rng.Intn(extent+8) - 4
			return Range{lo, lo + rng.Intn(extent+8) - 2}
		}
		for q := 0; q < 40; q++ {
			iR, kR, jR := window(a.Rows), window(a.Cols), window(b.Cols)
			wide.check(t, iR, kR, jR)
			compact.check(t, iR, kR, jR)
		}
		ti, tk, tj := rng.Intn(a.Rows)+1, rng.Intn(a.Cols)+1, rng.Intn(b.Cols)+1
		for j0 := 0; j0 < b.Cols; j0 += tj {
			for k0 := 0; k0 < a.Cols; k0 += tk {
				for i0 := 0; i0 < a.Rows; i0 += ti { // I innermost: windows carry over
					iR, kR, jR := Range{i0, i0 + ti}, Range{k0, k0 + tk}, Range{j0, j0 + tj}
					wide.check(t, iR, kR, jR)
					compact.check(t, iR, kR, jR)
				}
			}
		}
	}
}
