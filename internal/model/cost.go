package model

// CostTable is an MLLM's per-sample FLOP model compiled once for the
// hot path: every per-model constant the formulas recompute on each
// query (transformer parameter counts, the backbone's whole-sequence
// cost, the projector terms, the UNet and VAE per-image costs at
// GenResolution) is evaluated here, and Fwd/Train evaluate only the
// shape-dependent remainder. This mirrors the paper's profiler (§3),
// which answers cost queries from a table built once.
//
// The constants are hoisted subexpressions, never re-associated ones,
// so every value is bit-identical (==) to MLLM.ModuleFwdFLOPs and
// MLLM.ModuleTrainFLOPs, which stay the definition and the test
// oracle. A CostTable is immutable and safe for concurrent use.
type CostTable struct {
	// Encoder: per image of s tokens the ViT costs
	// s * (encMatmul + attn(s) + encHead), attn(s) = encAttn*s*encHidden
	// (halved when encBidir), as in TransformerConfig.FwdFLOPsPerToken.
	encMatmul, encHead float64
	encAttn, encHidden float64
	encBidir           bool
	// inProj is the input projector's FLOPs per image token.
	inProj float64
	// backbone is BackboneFwdFLOPs: one packed sequence.
	backbone float64
	// outProj is the output projector over the whole sequence.
	outProj float64
	// genImage is UNet + VAE forward FLOPs per generated image;
	// unetImage is the UNet share, the trainable part of it.
	genImage, unetImage float64
}

// NewCostTable compiles m's cost model. The model must be valid: the
// generator constants are evaluated eagerly, and the formulas they
// come from index the UNet stages.
func NewCostTable(m *MLLM) (*CostTable, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	enc := &m.Encoder
	l := float64(enc.Layers)
	t := &CostTable{
		encMatmul: 2 * l * enc.ParamsPerLayer(),
		encAttn:   l * 2,
		encHidden: float64(enc.HiddenSize),
		encBidir:  enc.VocabSize == 0,
		inProj:    m.InProj.FwdFLOPsPerToken(),
		backbone:  m.BackboneFwdFLOPs(),
		outProj:   float64(m.SeqLen) * m.OutProj.FwdFLOPsPerToken(),
		unetImage: m.Generator.FwdFLOPsPerImage(m.GenResolution),
	}
	if t.encBidir {
		t.encAttn = l * 4
	} else {
		t.encHead = 2 * float64(enc.VocabSize) * t.encHidden
	}
	t.genImage = t.unetImage + m.VAE.EncodeFLOPsPerImage(m.GenResolution)
	return t, nil
}

// encoderFwd is MLLM.EncoderFwdFLOPs over the table.
func (t *CostTable) encoderFwd(s SampleShape) float64 {
	total := 0.0
	tokens := 0
	for _, n := range s.ImageTokens {
		tokens += n
		if n <= 0 {
			continue
		}
		sf := float64(n)
		attn := t.encAttn * sf * t.encHidden
		if t.encBidir {
			attn /= 2
		}
		total += sf * (t.encMatmul + attn + t.encHead)
	}
	total += float64(tokens) * t.inProj
	return total
}

// Fwd returns the module's forward FLOPs for one sample; it equals
// MLLM.ModuleFwdFLOPs bit for bit.
func (t *CostTable) Fwd(mod Module, s SampleShape) float64 {
	switch mod {
	case Encoder:
		return t.encoderFwd(s)
	case Backbone:
		return t.backbone
	case Generator:
		return t.outProj + float64(s.GenImages)*t.genImage
	}
	return 0
}

// Train returns forward and backward FLOPs for one sample under a
// freeze setting; it equals MLLM.ModuleTrainFLOPs bit for bit.
func (t *CostTable) Train(mod Module, s SampleShape, f FreezeSpec) (fwd, bwd float64) {
	fwd = t.Fwd(mod, s)
	factor := f.BackwardFactor(mod)
	if mod == Generator {
		return fwd, factor * (t.outProj + float64(s.GenImages)*t.unetImage)
	}
	return fwd, factor * fwd
}
