package decentral

import (
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

// TestLayoutAblationBitIdentical is the de-centralized half of the CLV
// layout determinism contract (docs/DETERMINISM.md §7): a full
// inference on the default SoA layout with fused small-partition
// batching (this dataset's partitions sit below the threshold) must
// reproduce the AoS, batching-disabled run bit-for-bit, for both rate
// models and serial and threaded kernels — including each ablation
// flipped on its own.
func TestLayoutAblationBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			d := makeDataset(t, 12, 2, 70, 9)
			cfg := search.Config{Het: het, Seed: 17, MaxIterations: 2}

			oracle, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads, DisableSoA: true, BatchSites: -1})
			if err != nil {
				t.Fatalf("%v T=%d aos/unbatched: %v", het, threads, err)
			}
			soa, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d soa/batched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" soa+batched vs aos+unbatched", soa, oracle)

			aosBatched, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads, DisableSoA: true})
			if err != nil {
				t.Fatalf("%v T=%d aos/batched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" aos+batched", aosBatched, oracle)

			soaUnbatched, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads, BatchSites: -1})
			if err != nil {
				t.Fatalf("%v T=%d soa/unbatched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" soa+unbatched", soaUnbatched, oracle)
		}
	}
}

// TestLayoutToggleMidRun flips the CLV layout (and the batching
// threshold) on the live engines between iterations of one run, via the
// OnIteration hook and the engine's SetLayout/SetBatchSites
// capabilities, and requires the result to stay bit-identical to an
// untouched default run: live CLVs are transposed in place, so the
// switch must be invisible in the bits.
func TestLayoutToggleMidRun(t *testing.T) {
	d := makeDataset(t, 12, 2, 70, 9)
	base := search.Config{Het: model.Gamma, Seed: 17, MaxIterations: 3}
	ref, _, err := Run(d, RunConfig{Search: base, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	toggled := base
	toggled.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
		// Every rank replica runs the hook with identical state, so the
		// layout flips consistently across the world: AoS after odd
		// iterations, back to SoA (with batching re-enabled) after even.
		eng := s.Engine().(interface {
			SetLayout(bool)
			SetBatchSites(int)
		})
		if iter%2 == 1 {
			eng.SetLayout(false)
			eng.SetBatchSites(0)
		} else {
			eng.SetLayout(true)
			eng.SetBatchSites(0)
			eng.SetBatchSites(1 << 20)
		}
	}
	got, _, err := Run(d, RunConfig{Search: toggled, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "mid-run layout toggle", got, ref)
}

// TestLayoutOverTCPBitIdentical runs the default SoA+batched inference
// as one mpinet TCP endpoint per rank and compares against the
// in-process AoS unbatched oracle: neither the wire transport, the
// layout, nor the fused dispatch may show up in the result bits.
func TestLayoutOverTCPBitIdentical(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 3)
	const ranks = 3
	cfg := search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2}
	ref, _, err := Run(d, RunConfig{Search: cfg, Ranks: ranks, DisableSoA: true, BatchSites: -1})
	if err != nil {
		t.Fatal(err)
	}

	addr := reserveLoopbackAddr(t)
	results := make([]*search.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 113})
			if err != nil {
				errs[rank] = err
				return
			}
			c := mpi.NewComm(tr, rank, ranks, mpi.NewMeter())
			defer c.Close()
			res, _, err := RunOnComm(c, d, RunConfig{Search: cfg})
			results[rank], errs[rank] = res, err
		}(r)
	}
	wg.Wait()

	for r := 0; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		requireIdentical(t, "TCP layout rank", results[r], ref)
	}
}
