package drt_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drt"

	"drt/internal/gen"
)

func randomTriples(rng *rand.Rand, rows, cols, n int) (is, js []int, vs []float64) {
	for t := 0; t < n; t++ {
		is = append(is, rng.Intn(rows))
		js = append(js, rng.Intn(cols))
		vs = append(vs, rng.Float64()+0.5)
	}
	return
}

func TestMatrixFromCOOValidation(t *testing.T) {
	if _, err := drt.MatrixFromCOO(2, 2, []int{0}, []int{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
	if _, err := drt.MatrixFromCOO(2, 2, []int{5}, []int{0}, []float64{1}); err == nil {
		t.Fatal("out-of-range point accepted")
	}
	m, err := drt.MatrixFromCOO(3, 3, []int{0, 0}, []int{1, 1}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 || m.At(0, 1) != 5 {
		t.Fatalf("duplicates not summed: %+v", m)
	}
}

func TestMultiplyShapes(t *testing.T) {
	a := gen.Uniform(4, 5, 10, 1)
	b := gen.Uniform(6, 4, 10, 2)
	if _, _, err := drt.Multiply(a, b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestPlanCoversMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(200) + 50
		a := gen.RMAT(n, n*4, 0.57, 0.19, 0.19, rng.Int63())
		b := gen.RMAT(n, n*4, 0.57, 0.19, 0.19, rng.Int63())
		plan, err := drt.PlanSpMSpM(a, b, drt.PlanConfig{
			MicroTile: 8,
			BudgetA:   2 << 10,
			BudgetB:   4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := drt.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("trial %d: plan execution differs from reference", trial)
		}
	}
}

// TestPlanExecuteRejectsOtherOperands pins that a plan executes only on
// the operands it was built for. Larger operands would leave rows and
// columns outside the planned extents unvisited, and a different sparsity
// pattern would hit tasks the plan dropped as empty; both were once
// silently wrong products and are now errors. Same pattern with other
// values is still the planned product.
func TestPlanExecuteRejectsOtherOperands(t *testing.T) {
	a := gen.Uniform(64, 48, 300, 1)
	b := gen.Uniform(48, 56, 300, 2)
	plan, err := drt.PlanSpMSpM(a, b, drt.PlanConfig{MicroTile: 8, BudgetA: 1 << 10, BudgetB: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	taller := gen.Uniform(96, 48, 450, 1)    // rows past the planned I extent
	wider := gen.Uniform(48, 80, 450, 2)     // columns past the planned J extent
	repattern := gen.Uniform(64, 48, 300, 3) // same shape, other points
	for name, ops := range map[string][2]*drt.Matrix{
		"taller A": {taller, b}, "wider B": {a, wider}, "other A pattern": {repattern, b},
	} {
		if got, err := plan.Execute(ops[0], ops[1]); err == nil {
			want, _, _ := drt.Multiply(ops[0], ops[1])
			t.Fatalf("%s: executed without error (product equal to Multiply: %v)", name, got.EqualApprox(want, 1e-9))
		}
	}
	if _, err := plan.ExecuteSpMM(a, drt.NewDenseMatrix(48, 56)); err == nil {
		t.Fatal("SpMSpM plan executed as SpMM")
	}

	scaled := *a
	scaled.Val = make([]float64, len(a.Val))
	for p, v := range a.Val {
		scaled.Val[p] = 3 * v
	}
	got, err := plan.Execute(&scaled, b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _ := drt.Multiply(&scaled, b); !got.EqualApprox(want, 1e-9) {
		t.Fatal("same-pattern operands: plan execution differs from Multiply")
	}
}

func TestPlanRespectsBudgets(t *testing.T) {
	a := gen.RMAT(256, 2000, 0.57, 0.19, 0.19, 3)
	plan, err := drt.PlanSpMSpM(a, a, drt.PlanConfig{MicroTile: 8, BudgetA: 1 << 10, BudgetB: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) == 0 {
		t.Fatal("empty plan")
	}
	for _, task := range plan.Tasks {
		if task.ABytes > 1<<10 || task.BBytes > 4<<10 {
			t.Fatalf("tile exceeds budget: %+v", task)
		}
		if task.ANonZeros == 0 || task.BNonZeros == 0 {
			t.Fatal("plan contains an empty task")
		}
	}
	if plan.Stats.LoadedABytes < plan.Stats.OnePassABytes {
		t.Fatalf("loaded A %d below one pass %d", plan.Stats.LoadedABytes, plan.Stats.OnePassABytes)
	}
}

func TestPlanStrategiesDiffer(t *testing.T) {
	a := gen.RMAT(512, 6000, 0.6, 0.18, 0.18, 5)
	cfg := drt.PlanConfig{MicroTile: 8, BudgetA: 2 << 10, BudgetB: 8 << 10}
	dynamic, err := drt.PlanSpMSpM(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = drt.Static
	static, err := drt.PlanSpMSpM(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The headline property at API level: DRT loads fewer bytes than a
	// unit static tiling for the same budgets.
	dyn := dynamic.Stats.LoadedABytes + dynamic.Stats.LoadedBBytes
	st := static.Stats.LoadedABytes + static.Stats.LoadedBBytes
	if dyn >= st {
		t.Fatalf("DRT loaded %d bytes, static %d", dyn, st)
	}
}

func TestPlanConfigValidation(t *testing.T) {
	a := gen.Uniform(16, 16, 40, 1)
	if _, err := drt.PlanSpMSpM(a, a, drt.PlanConfig{BudgetA: 0, BudgetB: 100}); err == nil {
		t.Fatal("zero budget accepted")
	}
	b := gen.Uniform(8, 8, 10, 1)
	if _, err := drt.PlanSpMSpM(a, b, drt.PlanConfig{BudgetA: 100, BudgetB: 100}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestPlanQuick(t *testing.T) {
	// Property: for any operands and budgets, executing the plan equals
	// the reference product.
	f := func(seed int64, na, nb uint8, aStationary bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 10
		a := gen.Uniform(n, n, int(na)*2, seed)
		b := gen.Uniform(n, n, int(nb)*2, seed+1)
		plan, err := drt.PlanSpMSpM(a, b, drt.PlanConfig{
			MicroTile:   4,
			BudgetA:     512,
			BudgetB:     512,
			AStationary: aStationary,
		})
		if err != nil {
			return false
		}
		got, err := plan.Execute(a, b)
		if err != nil {
			return false
		}
		want, _, _ := drt.Multiply(a, b)
		return got.EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
