package tensor

import "math"

// rowIndexMin is the shortest row the RowIndex buckets: a window bound in
// a row of at most this many elements is a plain linear scan, which beats
// any lookup structure at that length (the same cut-off lowerBound's
// bisection stops at).
const rowIndexMin = 16

// RowIndex is a bucketed window index over the rows of one matrix: it
// turns a RowRange bound in a long row from a bisection into one bucket
// load plus a scan of the few elements sharing that bucket.
//
// Each indexed row (more than rowIndexMin elements) spanning coordinates
// [first, last] is cut into nb buckets of width 2^shift, with the smallest
// shift giving nb <= n-3 for a row of n elements — about one bucket per
// stored element. Bucket b holds the elements whose coordinate c has
// (c-first)>>shift == b. The row's entries in ent are the shift and first
// followed by the nb+1 bucket boundaries, relative to the row's first
// position. A lookup thus reads its row header and bucket from one place,
// never loads the row's first and last coordinates, and touches no
// coordinate at all when the window falls in an empty bucket. With at
// most n entries per row the index holds Len() <= nnz + rows + 1 entries
// (off plus ent), within nnz + 2·rows for any matrix with rows. Rows of
// at most rowIndexMin elements, and rows whose positions or coordinates
// overflow int32, have no entries and keep RowRange's lookup.
type RowIndex struct {
	off []int   // row i's entries are ent[off[i]:off[i+1]]
	ent []int32 // per indexed row: shift, first, then the bucket boundaries
}

// NewRowIndex builds the window index of m's rows.
func NewRowIndex[T Ix](m *Mat[T]) *RowIndex {
	x := &RowIndex{off: make([]int, m.Rows+1)}
	size := 0
	for i := 0; i < m.Rows; i++ {
		s, e := int(m.Ptr[i]), int(m.Ptr[i+1])
		if n := e - s; n > rowIndexMin && n <= math.MaxInt32 && int(m.Idx[e-1]) <= math.MaxInt32 {
			_, nb := rowBuckets(int(m.Idx[e-1]-m.Idx[s]), n)
			size += 3 + nb
		}
		x.off[i+1] = size
	}
	x.ent = make([]int32, size)
	for i := 0; i < m.Rows; i++ {
		ent := x.ent[x.off[i]:x.off[i+1]]
		if len(ent) == 0 {
			continue
		}
		s, e := int(m.Ptr[i]), int(m.Ptr[i+1])
		first := int(m.Idx[s])
		shift, nb := rowBuckets(int(m.Idx[e-1])-first, e-s)
		ent[0], ent[1] = int32(shift), int32(first)
		p := s
		for b := 0; b <= nb; b++ {
			for p < e && (int(m.Idx[p])-first)>>shift < b {
				p++
			}
			ent[2+b] = int32(p - s)
		}
	}
	return x
}

// rowBuckets returns the bucket shift and count of a row of n > 4
// elements whose coordinates span last-first = d: the smallest shift with
// at most n-3 buckets.
func rowBuckets(d, n int) (shift, nb int) {
	for d>>shift > n-4 {
		shift++
	}
	return shift, d>>shift + 1
}

// Len returns the number of entries the index holds.
func (x *RowIndex) Len() int { return len(x.off) + len(x.ent) }

// IndexedRowRange is RowRange served from x, the RowIndex built over c:
// the same results and short-row scans, with bucket lookups in place of
// the bisection of long rows. Each bound scans only its own bucket. A nil
// x falls back to RowRange.
func (c *Mat[T]) IndexedRowRange(x *RowIndex, i, c0, c1 int) (lo, hi int) {
	s, e := int(c.Ptr[i]), int(c.Ptr[i+1])
	if x == nil || e-s <= rowIndexMin {
		return c.RowRange(i, c0, c1) // short rows never touch the index
	}
	ent := x.ent[x.off[i]:x.off[i+1]]
	if len(ent) == 0 {
		return c.RowRange(i, c0, c1)
	}
	if c0 < 0 {
		c0 = 0
	}
	if c1 > c.Cols {
		c1 = c.Cols
	}
	if c1 <= c0 {
		return e, e
	}
	shift, first := ent[0], int(ent[1])
	bnd := ent[2:] // bucket b is s + [bnd[b], bnd[b+1])
	nb := len(bnd) - 1
	lo = s
	if c0 > first {
		b := (c0 - first) >> shift
		if b >= nb {
			return e, e // past the last bucket, so past the row
		}
		lo += int(bnd[b])
		for end := s + int(bnd[b+1]); lo < end && int(c.Idx[lo]) < c0; lo++ {
		}
		if lo == e {
			return e, e
		}
	}
	hi = lo
	if c1 > first {
		b := (c1 - first) >> shift
		if b >= nb {
			return lo, e
		}
		hi = max(hi, s+int(bnd[b]))
		for end := s + int(bnd[b+1]); hi < end && int(c.Idx[hi]) < c1; hi++ {
		}
	}
	return lo, hi
}
