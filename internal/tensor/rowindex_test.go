package tensor

import (
	"math/rand"
	"testing"
)

// rowIndexMatrix decodes a fuzz input into a matrix: each byte is a
// coordinate step within the current row (the next coordinate is the
// previous one plus the byte plus one), 0xff ends the row, and a step
// past cols-1 ends it too. The shape covers empty rows, rows of any length
// and any spacing.
func rowIndexMatrix(data []byte, cols int) *CSR {
	m := &CSR{Cols: cols, Ptr: []int{0}}
	c := -1
	endRow := func() {
		m.Rows++
		m.Ptr = append(m.Ptr, len(m.Idx))
		c = -1
	}
	for _, d := range data {
		if d == 0xff {
			endRow()
			continue
		}
		if c += int(d) + 1; c >= cols {
			endRow()
			continue
		}
		m.Idx = append(m.Idx, c)
		m.Val = append(m.Val, 1)
	}
	endRow()
	return m
}

// checkRowIndex compares every indexed window lookup of m's rows with
// Mat.RowRange for the window [c0, c1) and its neighbours, and checks the
// index size bound.
func checkRowIndex[T Ix](t *testing.T, m *Mat[T], c0, c1 int) {
	t.Helper()
	x := NewRowIndex(m)
	if x.Len() > m.NNZ()+2*m.Rows {
		t.Fatalf("index of %d rows and %d nnz holds %d entries, bound %d", m.Rows, m.NNZ(), x.Len(), m.NNZ()+2*m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		for _, w := range [][2]int{{c0, c1}, {c0 - 1, c1 + 1}, {c0 + 1, c1}, {c1, c0}, {c0, c0 + 1}} {
			lo, hi := m.IndexedRowRange(x, i, w[0], w[1])
			wlo, whi := m.RowRange(i, w[0], w[1])
			if lo != wlo || hi != whi {
				t.Fatalf("row %d (%d elements) window [%d,%d): indexed [%d,%d), RowRange [%d,%d)",
					i, m.Ptr[i+1]-m.Ptr[i], w[0], w[1], lo, hi, wlo, whi)
			}
		}
	}
}

// FuzzRowIndex pins IndexedRowRange to RowRange on arbitrary rows and
// windows, including empty rows, rows just below and above the indexing
// cut-off, windows starting below zero, ending past Cols and empty or
// inverted windows, at both index widths. The seed corpus in
// testdata/fuzz/FuzzRowIndex runs under plain go test.
func FuzzRowIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 3, 1}, uint16(64), -3, 70)
	f.Fuzz(func(t *testing.T, data []byte, cols uint16, c0, c1 int) {
		m := rowIndexMatrix(data, int(cols)+1)
		checkRowIndex(t, m, c0, c1)
		checkRowIndex(t, m.Compact(), c0, c1)
	})
}

// TestRowIndexMatchesRowRange sweeps every window of random rows of up
// to a few hundred elements, at both index widths.
func TestRowIndexMatchesRowRange(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		cols := rng.Intn(600) + 1
		data := make([]byte, rng.Intn(900))
		for i := range data {
			data[i] = byte(rng.Intn(1 + rng.Intn(16)))
			if rng.Intn(150) == 0 {
				data[i] = 0xff
			}
		}
		m := rowIndexMatrix(data, cols)
		m32 := m.Compact()
		x, x32 := NewRowIndex(m), NewRowIndex(m32)
		for i := 0; i < m.Rows; i++ {
			for c0 := -2; c0 <= cols+2; c0 += rng.Intn(7) + 1 {
				for c1 := c0 - 1; c1 <= cols+2; c1 += rng.Intn(9) + 1 {
					wlo, whi := m.RowRange(i, c0, c1)
					lo, hi := m.IndexedRowRange(x, i, c0, c1)
					lo32, hi32 := m32.IndexedRowRange(x32, i, c0, c1)
					if lo != wlo || hi != whi || lo32 != wlo || hi32 != whi {
						t.Fatalf("trial %d row %d window [%d,%d): indexed [%d,%d) / [%d,%d), RowRange [%d,%d)",
							trial, i, c0, c1, lo, hi, lo32, hi32, wlo, whi)
					}
				}
			}
		}
	}
}
