package likelihood

// CLV memory layout (the tentpole of the vector-throughput refactor).
//
// The classic array-of-structs (AoS) order stores one pattern's whole
// column contiguously: Γ columns are 16 doubles ([category][state]), so
// the innermost site loop advances by 128 bytes per pattern and every
// per-(category,state) operation is a gather. The structure-of-arrays
// (SoA) order transposes that: each (category, state) pair owns a
// contiguous *site plane* of nPat doubles, so the innermost loops of
// Newview/Evaluate/Prepare stream stride-1 over sites — the layout
// BEAGLE's CPU kernels use, and the one auto-vectorizers want.
//
// Bit-identity contract (docs/DETERMINISM.md §7): the SoA workers in
// soa_gamma.go / soa_psr.go compute every value with the *identical
// expression* (same operands, same association order) as the AoS
// workers in gamma.go / psr.go, and accumulate per-site and per-block
// sums in the identical order. A layout is a permutation of storage,
// never of arithmetic, so `SetLayout` mid-run and the `-no-soa`
// ablation flag change no result bit. The derivative sum table
// (sumTab, gradTabs) stays in AoS order under BOTH layouts: it is
// consumed sequentially per site by the shared derivative workers,
// which therefore need no layout variants at all.

// Layout selects the CLV storage order of a Kernel.
type Layout uint8

const (
	// LayoutAoS is the per-column order (pattern-major), the ablation
	// oracle behind -no-soa.
	LayoutAoS Layout = iota
	// LayoutSoA is the per-(category,state) site-plane order
	// (plane-major, stride-1 over sites) — the default.
	LayoutSoA
)

// String implements fmt.Stringer for telemetry and test labels.
func (l Layout) String() string {
	if l == LayoutSoA {
		return "soa"
	}
	return "aos"
}

// Layout reports the kernel's active CLV layout.
func (k *Kernel) Layout() Layout { return k.layout }

// SetLayout switches the kernel's CLV storage order, transposing every
// live CLV and outer vector in place. Transposition moves values
// without touching them, so a mid-run switch is bit-identical to having
// run in the target layout from the start; scale vectors, the P-matrix
// cache, and the (always-AoS) sum tables all remain valid as-is.
func (k *Kernel) SetLayout(l Layout) {
	if l == k.layout {
		return
	}
	toSoA := l == LayoutSoA
	for i := range k.clv {
		k.transposeCLV(k.clv[i], toSoA)
	}
	for i := range k.outer {
		k.transposeCLV(k.outer[i], toSoA)
	}
	k.layout = l
}

// transposeCLV permutes one CLV vector between the two layouts. The
// plane count is derived from the vector length, so the helper serves
// Γ (16 planes) and PSR (4 planes) alike; nil (never-computed) slots
// are skipped.
func (k *Kernel) transposeCLV(v []float64, toSoA bool) {
	if v == nil {
		return
	}
	n := k.nPat
	planes := len(v) / n
	if cap(k.transScr) < len(v) {
		k.transScr = make([]float64, len(v))
	}
	tmp := k.transScr[:len(v)]
	if toSoA {
		for i := 0; i < n; i++ {
			col := v[i*planes : (i+1)*planes]
			for p, x := range col {
				tmp[p*n+i] = x
			}
		}
	} else {
		for i := 0; i < n; i++ {
			col := tmp[i*planes : (i+1)*planes]
			for p := range col {
				col[p] = v[p*n+i]
			}
		}
	}
	copy(v, tmp)
}

// soaColGamma loads the (site i, category c) state column of a Γ CLV
// stored in SoA order — the strided-gather counterpart of the AoS
// 4-double contiguous read. Used by the site-major SoA fallback workers;
// loads never change value bits.
func soaColGamma(clv []float64, n, i, c int) [ns]float64 {
	p := clv[(c*ns)*n:]
	return [ns]float64{p[i], p[n+i], p[2*n+i], p[3*n+i]}
}
