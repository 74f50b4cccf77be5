package drt

import (
	"fmt"

	"drt/internal/core"
	"drt/internal/kernels"
	"drt/internal/tensor"
	"drt/internal/tiling"
)

// DenseMatrix is a row-major dense matrix, the second operand of SpMM.
type DenseMatrix = tensor.Dense

// NewDenseMatrix returns a zeroed dense matrix.
func NewDenseMatrix(rows, cols int) *DenseMatrix { return tensor.NewDense(rows, cols) }

// MultiplySpMM returns the exact product A·B of a sparse A and dense B,
// with the effectual MACC count.
func MultiplySpMM(a *Matrix, b *DenseMatrix) (*DenseMatrix, int64, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("drt: cannot multiply %dx%d by dense %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	z, st := kernels.SpMM(a, b)
	return z, st.MACCs, nil
}

// PlanSpMM tiles the sparse-times-dense multiplication Z = A·B with DRT:
// A's tiles grow by occupancy while B's — being dense — cost their full
// coordinate area, so tile shapes adapt to A's sparsity under B's
// footprint pressure. bCols is B's width.
func PlanSpMM(a *Matrix, bCols int, cfg PlanConfig) (*Plan, error) {
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
	if bCols < 1 {
		return nil, fmt.Errorf("drt: dense operand width %d", bCols)
	}
	ga := tiling.NewAutoGrid(a, mt, mt)
	bView := core.DenseView{
		Rows: a.Cols, Cols: bCols,
		TileH: mt, TileW: mt,
		ElemBytes: tensor.ValueBytes,
	}
	gcB := (bCols + mt - 1) / mt
	gaR, gaC := ga.Extents()
	k := &core.Kernel{
		DimNames:   []string{"I", "J", "K"},
		Contracted: []bool{false, false, true},
		Extent:     []int{gaR, gcB, gaC},
		Operands: []core.Operand{
			{Name: "A", Dims: []int{0, 2}, View: core.MatrixView{G: ga}, Capacity: cfg.BudgetA},
			{Name: "B", Dims: []int{2, 1}, View: bView, Capacity: cfg.BudgetB},
		},
	}
	loop := []int{1, 2, 0}
	if cfg.AStationary {
		loop = []int{0, 2, 1}
	}
	e, err := core.NewEnumerator(k, &core.Config{LoopOrder: loop, Strategy: cfg.Strategy})
	if err != nil {
		return nil, err
	}
	p := &Plan{a: sparseShape(a), b: operandShape{rows: a.Cols, cols: bCols}, dense: true}
	p.Stats.OnePassABytes = ga.TotalFootprint()
	p.Stats.OnePassBBytes = int64(a.Cols) * int64(bCols) * tensor.ValueBytes
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
			J:         clampRange(t.Ranges[1], bCols),
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

// ExecuteSpMM runs an SpMM plan against its operands and returns the dense
// product, identical to MultiplySpMM(a, b). Operands other than the ones
// PlanSpMM planned are an error, as for Execute.
func (p *Plan) ExecuteSpMM(a *Matrix, b *DenseMatrix) (*DenseMatrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("drt: cannot multiply %dx%d by dense %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := p.checkOperands(sparseShape(a), operandShape{rows: b.Rows, cols: b.Cols}, true); err != nil {
		return nil, err
	}
	z := tensor.NewDense(a.Rows, b.Cols)
	for _, t := range p.Tasks {
		for i := t.I.Lo; i < t.I.Hi && i < a.Rows; i++ {
			lo, hi := a.RowRange(i, t.K.Lo, t.K.Hi)
			for pi := lo; pi < hi; pi++ {
				k := a.Idx[pi]
				av := a.Val[pi]
				for j := t.J.Lo; j < t.J.Hi && j < b.Cols; j++ {
					z.V[i*z.Cols+j] += av * b.At(k, j)
				}
			}
		}
	}
	return z, nil
}
