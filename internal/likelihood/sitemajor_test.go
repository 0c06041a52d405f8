package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/threadpool"
)

// This file is the bit-identity oracle for the plane-major block
// workers: a serial, site-major recomputation of every Newview column,
// every Evaluate site and every sum-table entry in the classic per-site
// expression order, using the kernel's own P matrices and stored
// operands. Any reordering of an order-sensitive operation in the
// workers (dispatch.go, soa_gamma.go, soa_psr.go) shows up here as a
// bit difference (docs/DETERMINISM.md §2).

// siteMajorKernel builds a kernel over a 12-taxon partition large
// enough to span several pattern blocks.
func siteMajorKernel(t *testing.T, het model.Heterogeneity, threads int, fast bool) (*Kernel, *threadpool.Pool) {
	t.Helper()
	const seed = 7
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: 12,
		Specs: []seqgen.Spec{{Name: "g", NSites: 2000, Alpha: 0.7, GapProb: 0.03}},
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]
	rng := rand.New(rand.NewSource(seed * 31))
	par, err := model.NewParams(het, pd.Freqs, pd.NPatterns())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < model.NumRates-1; i++ {
		par.Rates[i] = 0.4 + 2*rng.Float64()
	}
	par.Alpha = 0.5 + rng.Float64()
	if err := par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if het == model.PSR {
		for i := range par.SiteRates {
			par.SiteRates[i] = math.Exp(rng.NormFloat64() * 0.5)
		}
		cr, sc, err := model.QuantizeSiteRates(par.SiteRates, pd.Weights, model.MaxPSRCategories)
		if err != nil {
			t.Fatal(err)
		}
		par.CatRates, par.SiteCats = cr, sc
	}
	k, err := NewKernel(pd, par, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nb := threadpool.NumBlocks(k.NPatterns()); nb < 3 {
		t.Fatalf("fixture spans only %d blocks", nb)
	}
	k.SetFastPath(fast)
	k.SetPCache(fast)
	var p *threadpool.Pool
	if threads > 0 {
		p = threadpool.New(threads)
		k.SetPool(p)
	}
	return k, p
}

// siteMajorSteps is a fixed schedule over taxa 0–10 covering every
// Newview operand shape: tip-tip, tip-inner, inner-tip and inner-inner.
// Repeated branch lengths give the P-matrix cache hits.
func siteMajorSteps() []Step {
	T, I := TipRef, InnerRef
	return []Step{
		{Dst: 0, A: T(0), B: T(1), TA: 0.05, TB: 0.21},
		{Dst: 1, A: T(2), B: T(3), TA: 0.13, TB: 0.05},
		{Dst: 2, A: I(0), B: I(1), TA: 0.31, TB: 0.08},
		{Dst: 3, A: T(4), B: I(2), TA: 0.17, TB: 0.05},
		{Dst: 4, A: I(3), B: T(5), TA: 0.26, TB: 0.11},
		{Dst: 5, A: T(6), B: T(7), TA: 0.09, TB: 0.13},
		{Dst: 6, A: I(5), B: T(8), TA: 0.02, TB: 0.29},
		{Dst: 7, A: I(4), B: I(6), TA: 0.22, TB: 0.31},
		{Dst: 8, A: T(9), B: T(10), TA: 0.07, TB: 0.18},
		{Dst: 9, A: I(7), B: I(8), TA: 0.12, TB: 0.24},
	}
}

// siteMajorCats returns the number of category columns a site's CLV
// holds (Γ: all categories; PSR: the site's one category).
func siteMajorCats(k *Kernel) int {
	if k.par.Het == model.Gamma {
		return gammaCats
	}
	return 1
}

// siteMajorMatrix returns the P matrix for column j of site i.
func siteMajorMatrix(k *Kernel, pm [][ns * ns]float64, i, j int) *[ns * ns]float64 {
	if k.par.Het == model.Gamma {
		return &pm[j]
	}
	return &pm[k.par.SiteCats[i]]
}

// siteMajorVec reads operand r's state vector for column j of site i.
func siteMajorVec(k *Kernel, r NodeRef, i, j int) [ns]float64 {
	if r.Tip {
		return k.tipVec[k.data.Tips[r.Idx][i]]
	}
	clv, n := k.clv[r.Idx], k.nPat
	var v [ns]float64
	for x := range v {
		v[x] = clv[(j*ns+x)*n+i]
	}
	return v
}

// siteMajorScale is operand r's scale count at site i (tips: zero).
func siteMajorScale(k *Kernel, r NodeRef, i int) int32 {
	if r.Tip {
		return 0
	}
	return k.scale[r.Idx][i]
}

// kernelPM computes the kernel's P matrices for branch length t into
// fresh storage.
func kernelPM(k *Kernel, t float64) [][ns * ns]float64 {
	pm := make([][ns * ns]float64, len(k.par.CatRates))
	k.probMatrices(t, pm)
	return pm
}

// checkNewviewSiteMajor recomputes step s's output column by column and
// compares every value and scale count with the kernel's slot.
func checkNewviewSiteMajor(t *testing.T, label string, k *Kernel, s Step) {
	t.Helper()
	pa, pb := kernelPM(k, s.TA), kernelPM(k, s.TB)
	nc := siteMajorCats(k)
	dclv, dscale, n := k.clv[s.Dst], k.scale[s.Dst], k.nPat
	var col [gammaCats * ns]float64
	bad := 0
	for i := 0; i < n; i++ {
		sc := siteMajorScale(k, s.A, i) + siteMajorScale(k, s.B, i)
		needScale := true
		for j := 0; j < nc; j++ {
			pca, pcb := siteMajorMatrix(k, pa, i, j), siteMajorMatrix(k, pb, i, j)
			va, vb := siteMajorVec(k, s.A, i, j), siteMajorVec(k, s.B, i, j)
			for x := 0; x < ns; x++ {
				la := pca[x*ns]*va[0] + pca[x*ns+1]*va[1] + pca[x*ns+2]*va[2] + pca[x*ns+3]*va[3]
				lb := pcb[x*ns]*vb[0] + pcb[x*ns+1]*vb[1] + pcb[x*ns+2]*vb[2] + pcb[x*ns+3]*vb[3]
				v := la * lb
				col[j*ns+x] = v
				if v >= ScaleThreshold || v != v {
					needScale = false
				}
			}
		}
		if needScale {
			for e := 0; e < nc*ns; e++ {
				col[e] *= ScaleFactor
			}
			sc++
		}
		if dscale[i] != sc {
			t.Errorf("%s: slot %d site %d scale %d != oracle %d", label, s.Dst, i, dscale[i], sc)
			bad++
		}
		for e := 0; e < nc*ns; e++ {
			if got := dclv[e*n+i]; math.Float64bits(got) != math.Float64bits(col[e]) {
				t.Errorf("%s: slot %d site %d entry %d = %x, oracle %x", label, s.Dst, i, e,
					math.Float64bits(got), math.Float64bits(col[e]))
				bad++
				break
			}
		}
		if bad > 5 {
			t.Fatalf("%s: too many mismatches", label)
		}
	}
}

// evaluateSiteMajor is the oracle log likelihood for the root edge
// (p, q): per-site sums in (category, state) order, per-block partial
// sums combined in block-index order.
func evaluateSiteMajor(k *Kernel, p, q NodeRef, bl float64) float64 {
	pm := kernelPM(k, bl)
	nc := siteMajorCats(k)
	catW := 1.0
	if k.par.Het == model.Gamma {
		catW = k.par.CatWeight()
	}
	freqs := &k.par.Freqs
	total := 0.0
	for b := 0; b < threadpool.NumBlocks(k.nPat); b++ {
		part := 0.0
		for i := b * threadpool.BlockSize; i < min((b+1)*threadpool.BlockSize, k.nPat); i++ {
			site := 0.0
			for j := 0; j < nc; j++ {
				pc := siteMajorMatrix(k, pm, i, j)
				vp, vq := siteMajorVec(k, p, i, j), siteMajorVec(k, q, i, j)
				for x := 0; x < ns; x++ {
					right := pc[x*ns]*vq[0] + pc[x*ns+1]*vq[1] + pc[x*ns+2]*vq[2] + pc[x*ns+3]*vq[3]
					if k.par.Het == model.Gamma {
						site += freqs[x] * vp[x] * right * catW
					} else {
						site += freqs[x] * vp[x] * right
					}
				}
			}
			sc := siteMajorScale(k, p, i) + siteMajorScale(k, q, i)
			part += float64(k.data.Weights[i]) * (math.Log(site) + float64(sc)*LogScaleStep)
		}
		total += part
	}
	return total
}

// checkSumTableSiteMajor recomputes every sum-table entry for the edge
// (p, q) prepared by the kernel.
func checkSumTableSiteMajor(t *testing.T, label string, k *Kernel, p, q NodeRef) {
	t.Helper()
	e := k.par.Eigen
	freqs := &k.par.Freqs
	nc := siteMajorCats(k)
	for i := 0; i < k.nPat; i++ {
		for j := 0; j < nc; j++ {
			vp, vq := siteMajorVec(k, p, i, j), siteMajorVec(k, q, i, j)
			for kk := 0; kk < ns; kk++ {
				ap := freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
					freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
				bq := e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
					e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
				want := ap * bq
				if got := k.sumTab[(i*nc+j)*ns+kk]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: sum table site %d col %d eigen %d = %x, oracle %x", label, i, j, kk,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestLayoutBitIdentical is the CLV-layout determinism contract
// (docs/DETERMINISM.md §2): the plane-major kernel must reproduce the
// serial site-major oracle bit for bit — every Newview column and scale
// count, the log likelihood on tip-tip, tip-inner, inner-tip and
// inner-inner root edges, and every sum-table entry — for both rate
// models, serial and threaded, with the tip fast paths on and off.
func TestLayoutBitIdentical(t *testing.T) {
	T, I := TipRef, InnerRef
	edges := [][2]NodeRef{{I(9), T(11)}, {T(11), I(9)}, {I(2), I(6)}, {T(0), T(1)}}
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{0, 1, 4} {
			for _, fast := range []bool{true, false} {
				label := fmt.Sprintf("%v fast=%v T=%d", het, fast, threads)
				k, pool := siteMajorKernel(t, het, threads, fast)
				for _, s := range siteMajorSteps() {
					k.Newview(s)
					checkNewviewSiteMajor(t, label, k, s)
					if s.Dst == 2 {
						// Push every third site of slot 2 far below the
						// scaling threshold so its parents take the
						// scaling branch on a mix of sites in each block.
						n := k.nPat
						for e := 0; e < len(k.clv[2])/n; e++ {
							for i := 0; i < n; i += 3 {
								k.clv[2][e*n+i] *= 0x1p-300
							}
						}
					}
				}
				if k.scale[3][0] == 0 {
					t.Fatalf("%s: the scaling branch was not exercised", label)
				}
				for _, e := range edges {
					got := k.Evaluate(e[0], e[1], 0.19)
					want := evaluateSiteMajor(k, e[0], e[1], 0.19)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: Evaluate%v lnL %x != oracle %x (%g vs %g)", label, e,
							math.Float64bits(got), math.Float64bits(want), got, want)
					}
					k.PrepareDerivatives(e[0], e[1])
					checkSumTableSiteMajor(t, label, k, e[0], e[1])
				}
				pool.Close()
			}
		}
	}
}
