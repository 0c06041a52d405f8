package decentral

import (
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

// TestLayoutAblationBitIdentical is the de-centralized half of the
// fused-batching determinism contract (docs/DETERMINISM.md §7): a full
// inference with fused small-partition batching (this dataset's
// partitions sit below the threshold) must reproduce the
// batching-disabled run bit-for-bit, for both rate models and serial
// and threaded kernels.
func TestLayoutAblationBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			d := makeDataset(t, 12, 2, 70, 9)
			cfg := search.Config{Het: het, Seed: 17, MaxIterations: 2}

			oracle, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads, BatchSites: -1})
			if err != nil {
				t.Fatalf("%v T=%d unbatched: %v", het, threads, err)
			}
			batched, _, err := Run(d, RunConfig{Search: cfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d batched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" batched vs unbatched", batched, oracle)
		}
	}
}

// TestLayoutToggleMidRun flips the fused-batching threshold on the live
// engines between iterations of one run, via the OnIteration hook and
// the engine's SetBatchSites capability, and requires the result to
// stay bit-identical to an untouched default run.
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
		// threshold flips consistently across the world: unbatched after
		// odd iterations, everything fused after even ones.
		eng := s.Engine().(interface{ SetBatchSites(int) })
		if iter%2 == 1 {
			eng.SetBatchSites(0)
		} else {
			eng.SetBatchSites(1 << 20)
		}
	}
	got, _, err := Run(d, RunConfig{Search: toggled, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "mid-run batching toggle", got, ref)
}

// TestLayoutOverTCPBitIdentical runs the default batched inference as
// one mpinet TCP endpoint per rank and compares against the in-process
// unbatched oracle: neither the wire transport nor the fused dispatch
// may show up in the result bits.
func TestLayoutOverTCPBitIdentical(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 3)
	const ranks = 3
	cfg := search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2}
	ref, _, err := Run(d, RunConfig{Search: cfg, Ranks: ranks, BatchSites: -1})
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
		requireIdentical(t, "TCP batched rank", results[r], ref)
	}
}
