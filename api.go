package drt

import (
	"fmt"

	"drt/internal/core"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// Matrix is a sparse matrix in CSR form; construct one with MatrixFromCOO
// or obtain one from Multiply.
type Matrix = tensor.CSR

// MatrixFromCOO builds a sparse matrix from coordinate triples; duplicate
// points are summed and explicit zeros dropped.
func MatrixFromCOO(rows, cols int, is, js []int, vs []float64) (*Matrix, error) {
	if len(is) != len(js) || len(is) != len(vs) {
		return nil, fmt.Errorf("drt: coordinate slices have lengths %d/%d/%d", len(is), len(js), len(vs))
	}
	m := tensor.NewCOO(rows, cols)
	for p := range is {
		if is[p] < 0 || is[p] >= rows || js[p] < 0 || js[p] >= cols {
			return nil, fmt.Errorf("drt: point (%d,%d) outside %dx%d", is[p], js[p], rows, cols)
		}
		m.Append(is[p], js[p], vs[p])
	}
	return tensor.FromCOO(m), nil
}

// Multiply returns the exact product A·B (row-wise Gustavson) and the
// number of effectual multiply-accumulates performed.
func Multiply(a, b *Matrix) (*Matrix, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	z, st := kernels.Gustavson(a, b)
	return z, st.MACCs, nil
}

// Strategy selects the tile-growth heuristic (Algorithm 2's
// selectDimToGrow).
type Strategy = core.Strategy

// Growth strategies. GreedyContractedFirst is the paper's default; Static
// disables growth, reproducing a static uniform (S-U-C) tiling.
const (
	GreedyContractedFirst = core.GreedyContractedFirst
	Alternating           = core.Alternating
	Static                = core.Static
)

// PlanConfig configures PlanSpMSpM.
type PlanConfig struct {
	// MicroTile is the edge of the statically built square micro tiles
	// (the paper uses 32). Defaults to 32.
	MicroTile int
	// BudgetA and BudgetB are the fast-memory bytes available to hold the
	// current tile of each operand (e.g. cache or scratchpad partitions).
	BudgetA, BudgetB int64
	// Strategy defaults to GreedyContractedFirst.
	Strategy Strategy
	// BStationary selects the J→K→I dataflow with B's tiles long-lived
	// (the paper's ExTensor-OP-DRT order); when false the I→K→J order
	// keeps A's tiles long-lived. Default true.
	AStationary bool
}

// TaskRange is a half-open coordinate interval.
type TaskRange struct {
	Lo, Hi int
}

// PlanTask is one Einsum task of the plan: with A[I,K] and B[K,J] tiles
// resident in fast memory, it computes Z[I,J] += A[I,K]·B[K,J] over the
// given coordinate ranges.
type PlanTask struct {
	I, J, K TaskRange
	// ANonZeros and BNonZeros are the tile occupancies; Empty tasks
	// (either tile unoccupied) are excluded from plans.
	ANonZeros, BNonZeros int64
	// ABytes and BBytes are the tile footprints in the micro-tiled
	// representation.
	ABytes, BBytes int64
}

// PlanStats summarizes the reuse a plan achieves.
type PlanStats struct {
	Tasks int
	// LoadedABytes/LoadedBBytes are the bytes fetched into fast memory
	// across the plan (tiles kept resident across consecutive tasks are
	// charged once).
	LoadedABytes, LoadedBBytes int64
	// OnePassABytes/OnePassBBytes are the read-once lower bounds.
	OnePassABytes, OnePassBBytes int64
}

// Plan is the output of PlanSpMSpM or PlanSpMM.
type Plan struct {
	Tasks []PlanTask
	Stats PlanStats
	// a and b record the operands the plan was built for. A plan covers
	// only their extents and leaves out the tasks that were empty for
	// them, so executing it on any other operands would silently drop
	// points; Execute and ExecuteSpMM return an error instead.
	a, b  operandShape
	dense bool // planned by PlanSpMM: B is dense
}

// operandShape identifies a planned operand: its shape and, for a sparse
// operand, a fingerprint of its sparsity pattern (values do not matter to
// a plan).
type operandShape struct {
	rows, cols int
	pattern    uint64
}

// sparseShape records a sparse operand's shape and pattern fingerprint
// (FNV-1a over its row pointers and column coordinates).
func sparseShape(m *Matrix) operandShape {
	h := uint64(14695981039346656037)
	for _, s := range [][]int{m.Ptr, m.Idx} {
		for _, v := range s {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	return operandShape{rows: m.Rows, cols: m.Cols, pattern: h}
}

// checkOperands returns an error unless a and b are the operands the plan
// was built for.
func (p *Plan) checkOperands(a operandShape, b operandShape, dense bool) error {
	switch {
	case dense != p.dense:
		return fmt.Errorf("drt: plan was built for %s, executed as %s", planKind(p.dense), planKind(dense))
	case a.rows != p.a.rows || a.cols != p.a.cols || b.rows != p.b.rows || b.cols != p.b.cols:
		return fmt.Errorf("drt: plan was built for a %dx%d by %dx%d product, executed on %dx%d by %dx%d",
			p.a.rows, p.a.cols, p.b.rows, p.b.cols, a.rows, a.cols, b.rows, b.cols)
	case a.pattern != p.a.pattern:
		return fmt.Errorf("drt: A's sparsity pattern differs from the one the plan was built for")
	case b.pattern != p.b.pattern:
		return fmt.Errorf("drt: B's sparsity pattern differs from the one the plan was built for")
	}
	return nil
}

func planKind(dense bool) string {
	if dense {
		return "SpMM (ExecuteSpMM)"
	}
	return "SpMSpM (Execute)"
}

// PlanSpMSpM tiles the multiplication A·B with dynamic reflexive tiling:
// it returns the sequence of Einsum tasks whose tiles maximize fast-memory
// occupancy under the given budgets, with co-tiled (matching) K ranges.
func PlanSpMSpM(a, b *Matrix, cfg PlanConfig) (*Plan, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	mt := cfg.MicroTile
	if mt == 0 {
		mt = 32
	}
	if mt < 1 {
		return nil, fmt.Errorf("drt: micro tile %d", mt)
	}
	if cfg.BudgetA <= 0 || cfg.BudgetB <= 0 {
		return nil, fmt.Errorf("drt: budgets must be positive, got %d/%d", cfg.BudgetA, cfg.BudgetB)
	}
	ga := tiling.NewAutoGrid(a, mt, mt)
	gb := tiling.NewAutoGrid(b, mt, mt)
	gaR, gaC := ga.Extents()
	_, gbC := gb.Extents()
	k := &core.Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{gaR, gbC, gaC},
		Operands: []core.Operand{
			{Name: "A", Dims: []int{0, 2}, View: core.MatrixView{G: ga}, Capacity: cfg.BudgetA},
			{Name: "B", Dims: []int{2, 1}, View: core.MatrixView{G: gb}, Capacity: cfg.BudgetB},
		},
	}
	loop := []int{1, 2, 0} // J → K → I: B stationary
	if cfg.AStationary {
		loop = []int{0, 2, 1} // I → K → J: A stationary
	}
	e, err := core.NewEnumerator(k, &core.Config{LoopOrder: loop, Strategy: cfg.Strategy})
	if err != nil {
		return nil, err
	}
	p := &Plan{a: sparseShape(a), b: sparseShape(b)}
	p.Stats.OnePassABytes = ga.TotalFootprint()
	p.Stats.OnePassBBytes = gb.TotalFootprint()
	clampRange := func(r core.Range, max int) TaskRange {
		hi := r.Hi * mt
		if hi > max {
			hi = max
		}
		return TaskRange{Lo: r.Lo * mt, Hi: hi}
	}
	for {
		t, ok, err := e.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if t.Empty {
			continue
		}
		p.Tasks = append(p.Tasks, PlanTask{
			I:         clampRange(t.Ranges[0], a.Rows),
			J:         clampRange(t.Ranges[1], b.Cols),
			K:         clampRange(t.Ranges[2], a.Cols),
			ANonZeros: t.OpNNZ[0],
			BNonZeros: t.OpNNZ[1],
			ABytes:    t.OpFootprint[0],
			BBytes:    t.OpFootprint[1],
		})
		if t.Rebuilt[0] {
			p.Stats.LoadedABytes += t.OpFootprint[0]
		}
		if t.Rebuilt[1] {
			p.Stats.LoadedBBytes += t.OpFootprint[1]
		}
	}
	p.Stats.Tasks = len(p.Tasks)
	return p, nil
}

// Execute runs a plan against its operands with the range-restricted
// reference kernel and returns the product — useful for verifying that a
// plan covers the full multiplication. The result is identical to
// Multiply(a, b). Operands other than the ones PlanSpMSpM planned — a
// different shape or sparsity pattern — are an error.
func (p *Plan) Execute(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := p.checkOperands(sparseShape(a), sparseShape(b), false); err != nil {
		return nil, err
	}
	out := tensor.NewCOO(a.Rows, b.Cols)
	spa := kernels.NewSPA(b.Cols)
	for _, t := range p.Tasks {
		for i := t.I.Lo; i < t.I.Hi && i < a.Rows; i++ {
			lo, hi := a.RowRange(i, t.K.Lo, t.K.Hi)
			if lo == hi {
				continue
			}
			spa.Reset()
			for pi := lo; pi < hi; pi++ {
				k := a.Idx[pi]
				blo, bhi := b.RowRange(k, t.J.Lo, t.J.Hi)
				for q := blo; q < bhi; q++ {
					spa.Add(b.Idx[q], a.Val[pi]*b.Val[q])
				}
			}
			cols, vals := spa.Drain()
			for p2, j := range cols {
				if vals[p2] != 0 {
					out.Append(i, j, vals[p2])
				}
			}
		}
	}
	return tensor.FromCOO(out), nil
}
