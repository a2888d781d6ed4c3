package nn

import (
	"math"

	"sam/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with optional
// gradient clipping by global norm. State is keyed by parameter tensor, so
// one optimizer serves a whole model.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	ClipMax float64 // 0 disables clipping

	step int
	m    map[*tensor.Tensor][]float64
	v    map[*tensor.Tensor][]float64
}

// NewAdam returns an Adam optimizer with the usual defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*tensor.Tensor][]float64),
		v:     make(map[*tensor.Tensor][]float64),
	}
}

// GradPair couples a parameter with its accumulated gradient for one step.
type GradPair struct {
	Param *tensor.Tensor
	Grad  *tensor.Tensor
}

// Step applies one Adam update over all pairs. Gradients are read, not
// cleared; callers own gradient lifecycle (fresh graphs produce fresh
// gradient buffers). Every product that feeds a sum is written
// float64(x*y), so no GOARCH fuses it into a multiply-add and the update
// rounds the same everywhere.
func (a *Adam) Step(pairs []GradPair) {
	a.step++
	if a.ClipMax > 0 {
		var norm2 float64
		for _, p := range pairs {
			for _, gv := range p.Grad.Data {
				norm2 += float64(gv * gv)
			}
		}
		if norm := math.Sqrt(norm2); norm > a.ClipMax {
			scale := a.ClipMax / norm
			for _, p := range pairs {
				p.Grad.ScaleInPlace(scale)
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range pairs {
		mBuf, ok := a.m[p.Param]
		if !ok {
			mBuf = make([]float64, len(p.Param.Data))
			a.m[p.Param] = mBuf
			a.v[p.Param] = make([]float64, len(p.Param.Data))
		}
		vBuf := a.v[p.Param]
		for i, gv := range p.Grad.Data {
			mBuf[i] = float64(a.Beta1*mBuf[i]) + float64((1-a.Beta1)*gv)
			vBuf[i] = float64(a.Beta2*vBuf[i]) + float64((1-a.Beta2)*gv*gv)
			mHat := mBuf[i] / bc1
			vHat := vBuf[i] / bc2
			p.Param.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		// Invalidate any masked-weight cache reading this parameter.
		p.Param.MarkDirty()
	}
}
