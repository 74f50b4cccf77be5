package kernels

import (
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// benchTallSkinny returns a fixed tall-skinny pair (F is 4096×32 at aspect
// 128 with about 2 points per row, the shape of Fig. 7's operands) as the
// two products the figure runs: FFᵀ, whose B rows are long enough to be
// indexed, and FᵀF, whose B rows are short.
func benchTallSkinny() map[string][2]*tensor.CSR {
	f := gen.TallSkinny(4096, 32, 2*4096, 7)
	ft := f.Transpose()
	return map[string][2]*tensor.CSR{"FFt": {f, ft}, "FtF": {ft, f}}
}

// BenchmarkRestrictedGustavson runs the restricted task kernel over every
// task of a static 64×64×64 tiling of each product, with B's RowIndex as
// the engines use it, and reports ns per effectual MACC.
func BenchmarkRestrictedGustavson(b *testing.B) {
	const tile = 64
	pairs := benchTallSkinny()
	for _, name := range []string{"FFt", "FtF"} {
		a, bm := pairs[name][0], pairs[name][1]
		b.Run(name, func(b *testing.B) {
			bx := tensor.NewRowIndex(bm)
			spa := NewSPA(bm.Cols)
			var maccs int64
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for i0 := 0; i0 < a.Rows; i0 += tile {
					for k0 := 0; k0 < a.Cols; k0 += tile {
						for j0 := 0; j0 < bm.Cols; j0 += tile {
							r := RestrictedGustavson(a, bm, bx,
								Range{i0, i0 + tile}, Range{k0, k0 + tile}, Range{j0, j0 + tile}, spa)
							maccs += r.MACCs
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(maccs), "ns/macc")
		})
	}
}

// BenchmarkGustavsonReference runs the sequential reference product of
// each pair and reports ns per effectual MACC; the allocation columns pin
// the presized two-pass output.
func BenchmarkGustavsonReference(b *testing.B) {
	pairs := benchTallSkinny()
	for _, name := range []string{"FFt", "FtF"} {
		ab := pairs[name]
		b.Run(name, func(b *testing.B) {
			var maccs int64
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				_, st := Gustavson(ab[0], ab[1])
				maccs += st.MACCs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(maccs), "ns/macc")
		})
	}
}
