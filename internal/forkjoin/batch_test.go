package forkjoin

import (
	"net"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

// TestLayoutAblationBitIdentical mirrors the decentral-engine test of
// the same name under the fork-join engine: fused small-partition
// batching on master and workers must reproduce the batching-disabled
// run bit-for-bit across rate models and thread counts.
func TestLayoutAblationBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			d := makeDataset(t, 12, 2, 70, 9)
			cfg := search.Config{Het: het, Seed: 17, MaxIterations: 2}

			oracle, _, err := Run(d, RunConfig{Search: cfg, Ranks: 3, Threads: threads, BatchSites: -1})
			if err != nil {
				t.Fatalf("%v T=%d unbatched: %v", het, threads, err)
			}
			batched, _, err := Run(d, RunConfig{Search: cfg, Ranks: 3, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d batched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" batched vs unbatched", batched, oracle)
		}
	}
}

// TestLayoutMasterOnlyToggleMidRun flips the master's batching
// threshold mid-run while the workers keep the default configuration:
// fork-join has no batching opcode, so Engine.SetBatchSites reaches the
// master's local kernels only, and the world runs heterogeneous
// thresholds. The result must still match an untouched run
// bit-for-bit — batching is invisible in every number any rank
// produces.
func TestLayoutMasterOnlyToggleMidRun(t *testing.T) {
	d := makeDataset(t, 12, 2, 70, 9)
	base := search.Config{Het: model.Gamma, Seed: 17, MaxIterations: 3}
	ref, _, err := Run(d, RunConfig{Search: base, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	toggled := base
	toggled.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
		eng := s.Engine().(interface{ SetBatchSites(int) })
		if iter%2 == 1 {
			eng.SetBatchSites(0)
		} else {
			eng.SetBatchSites(1 << 20)
		}
	}
	got, _, err := Run(d, RunConfig{Search: toggled, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "master-only batching toggle", got, ref)
}

// TestLayoutOverTCPBitIdentical runs the default batched fork-join
// inference over mpinet TCP endpoints against the in-process unbatched
// reference.
func TestLayoutOverTCPBitIdentical(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 3)
	const ranks = 3
	cfg := search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2}
	ref, _, err := Run(d, RunConfig{Search: cfg, Ranks: ranks, BatchSites: -1})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	results := make([]*search.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 131})
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
	}
	// Only the master returns a result under fork-join.
	requireIdentical(t, "TCP batched master", results[0], ref)
}
