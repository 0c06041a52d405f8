package likelihood_test

import (
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/threadpool"
)

// layoutFixture rebuilds the deterministic threaded fixture in the given
// CLV layout, with the fast paths toggled (so the SoA workers are
// exercised both with and without the tip tables).
func layoutFixture(t *testing.T, het model.Heterogeneity, threads int, l likelihood.Layout, fast bool) (*fixture, *threadpool.Pool) {
	t.Helper()
	f, pool := threadedFixture(t, het, threads)
	f.kern.SetLayout(l)
	f.kern.SetFastPath(fast)
	f.kern.SetPCache(fast)
	return f, pool
}

// compareScalarTrace compares the layout-independent observables of two
// traces (lnL, reversed evaluate, derivative bits). CLV digests hash raw
// storage and are layout-sensitive by design, so cross-layout checks
// compare them only after transposing both kernels into one layout.
func compareScalarTrace(t *testing.T, label string, got, want kernelTrace, gotRev, wantRev uint64) {
	t.Helper()
	if got.lnL != want.lnL {
		t.Errorf("%s: lnL bits %x != oracle %x", label, got.lnL, want.lnL)
	}
	if gotRev != wantRev {
		t.Errorf("%s: reversed-eval bits %x != oracle %x", label, gotRev, wantRev)
	}
	if got.derivs != want.derivs {
		t.Errorf("%s: derivative bits diverged: %x vs %x", label, got.derivs, want.derivs)
	}
}

// TestLayoutBitIdentical is the SoA determinism contract
// (docs/DETERMINISM.md §7): the default SoA layout must reproduce the
// AoS ablation oracle bit-for-bit — log likelihood, both derivatives at
// several branch lengths, and (after transposing back) every CLV byte —
// for both rate models, serial and threaded kernels, and with the tip
// fast paths both on and off.
func TestLayoutBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{0, 1, 4} {
			for _, fast := range []bool{true, false} {
				label := het.String() + " soa"
				if fast {
					label += "+fast"
				}
				aos, aosPool := layoutFixture(t, het, threads, likelihood.LayoutAoS, fast)
				want, wantRev := traceKernelFull(aos)
				aosPool.Close()

				f, pool := layoutFixture(t, het, threads, likelihood.LayoutSoA, fast)
				if f.kern.Layout() != likelihood.LayoutSoA {
					t.Fatalf("%s: fixture not in SoA layout", label)
				}
				got, gotRev := traceKernelFull(f)
				compareScalarTrace(t, label, got, want, gotRev, wantRev)

				// Transpose the live CLVs back to AoS: every byte must
				// match the oracle's storage exactly.
				f.kern.SetLayout(likelihood.LayoutAoS)
				for s := range want.digests {
					if d := f.kern.CLVDigest(s); d != want.digests[s] {
						t.Errorf("%s T=%d: CLV slot %d digest %x != oracle %x after transpose",
							label, threads, s, d, want.digests[s])
					}
				}
				pool.Close()
			}
		}
	}
}

// TestSetLayoutMidStream flips the layout back and forth on a live
// kernel between full evaluation passes: each phase must reproduce the
// AoS oracle bit-for-bit, and the transposition itself must round-trip
// the storage exactly.
func TestSetLayoutMidStream(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		aos, _ := layoutFixture(t, het, 0, likelihood.LayoutAoS, true)
		want, wantRev := traceKernelFull(aos)

		f, _ := layoutFixture(t, het, 0, likelihood.LayoutSoA, true)
		got, gotRev := traceKernelFull(f)
		compareScalarTrace(t, het.String()+" phase soa", got, want, gotRev, wantRev)
		soaDigest := f.kern.CLVDigest(0)

		// Mid-stream switch to AoS: live CLVs are transposed in place and
		// the next full pass must match the oracle in every byte.
		f.kern.SetLayout(likelihood.LayoutAoS)
		got, gotRev = traceKernelFull(f)
		compareTraces(t, het.String()+" phase aos", got, want, gotRev, wantRev)

		// And back: the scalar observables still match, and the slot-0
		// storage round-trips to its exact SoA bytes.
		f.kern.SetLayout(likelihood.LayoutSoA)
		got, gotRev = traceKernelFull(f)
		compareScalarTrace(t, het.String()+" phase soa again", got, want, gotRev, wantRev)
		if d := f.kern.CLVDigest(0); d != soaDigest {
			t.Errorf("%v: SoA storage did not round-trip: %x != %x", het, d, soaDigest)
		}
	}
}
