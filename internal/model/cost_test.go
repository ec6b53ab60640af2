package model

import (
	"math/rand"
	"testing"
)

// costShapes generates sample shapes covering every branch of the
// per-module formulas: no images, zero- and negative-token images
// (the encoder skips them but the input projector still sums them),
// realistic token counts, and 0..N generated images.
func costShapes(n int) []SampleShape {
	rng := rand.New(rand.NewSource(42))
	shapes := []SampleShape{
		{},
		{GenImages: 3},
		{ImageTokens: []int{0}},
		{ImageTokens: []int{-7, 256}, GenImages: 1},
		{ImageTokens: []int{0, -1, 0}},
		{ImageTokens: []int{1}, GenImages: 12},
	}
	for len(shapes) < n {
		var s SampleShape
		for k := rng.Intn(9); k > 0; k-- {
			tok := rng.Intn(4096) + 1
			switch rng.Intn(10) {
			case 0:
				tok = 0
			case 1:
				tok = -rng.Intn(64)
			}
			s.ImageTokens = append(s.ImageTokens, tok)
		}
		s.GenImages = rng.Intn(6)
		shapes = append(shapes, s)
	}
	return shapes
}

// TestCostTableMatchesFormulas pins the compiled table to the formulas
// with ==, not a tolerance: the table hoists subexpressions without
// re-associating them, so every FLOP value must be bit-identical
// across the three presets, every freeze setting and every module.
func TestCostTableMatchesFormulas(t *testing.T) {
	freezes := append([]FreezeSpec{FullTraining}, FrozenSettings()...)
	shapes := costShapes(300)
	// A causal (VocabSize > 0) encoder exercises the other attention
	// branch of FwdFLOPsPerToken.
	causal := MLLM9B()
	causal.Name = "MLLM-9B-causal-encoder"
	causal.Encoder.VocabSize = 1000
	for _, m := range append(Presets(), causal) {
		table, err := NewCostTable(&m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, s := range shapes {
			for _, mod := range Modules {
				if got, want := table.Fwd(mod, s), m.ModuleFwdFLOPs(mod, s); got != want {
					t.Fatalf("%s %v %v: Fwd = %v, formula %v", m.Name, mod, s, got, want)
				}
				for _, f := range freezes {
					gf, gb := table.Train(mod, s, f)
					wf, wb := m.ModuleTrainFLOPs(mod, s, f)
					if gf != wf || gb != wb {
						t.Fatalf("%s %v %s %v: Train = (%v, %v), formula (%v, %v)",
							m.Name, mod, f.Name, s, gf, gb, wf, wb)
					}
				}
			}
		}
	}
}

func TestNewCostTableRejectsInvalidModel(t *testing.T) {
	bad := MLLM9B()
	bad.GenResolution = 500 // not a multiple of the latent scale
	if _, err := NewCostTable(&bad); err == nil {
		t.Error("NewCostTable accepted an invalid model")
	}
}

// TestCostTableAllocFree: the per-sample hot path must not allocate.
func TestCostTableAllocFree(t *testing.T) {
	m := MLLM9B()
	table, err := NewCostTable(&m)
	if err != nil {
		t.Fatal(err)
	}
	s := SampleShape{ImageTokens: []int{256, 1024, 576}, GenImages: 2}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for _, mod := range Modules {
			fwd, bwd := table.Train(mod, s, FullTraining)
			sink += fwd + bwd
		}
	})
	if allocs != 0 || sink == 0 {
		t.Errorf("CostTable.Train allocates %v per sample", allocs)
	}
}
