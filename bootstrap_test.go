package examl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/phyrun"
	"repro/internal/tree"
)

// TestBootstrapMatchesFlatOracle checks the orchestrator-backed
// Bootstrap against a hand-rolled flat loop using the same splittable
// per-task seeds: identical reference tree, replicate trees, supports,
// and consensus, bit for bit.
func TestBootstrapMatchesFlatOracle(t *testing.T) {
	d, err := Simulate(8, 2, 200, 71)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 13}
	const B = 4

	got, err := Bootstrap(d, cfg, B)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: reference search at cfg.Seed, then each replicate in a
	// flat loop with seeds derived from the campaign plan.
	plan := phyrun.Plan{Seed: cfg.Seed, RandomStarts: 1, Replicates: B, StartSeeds: []int64{cfg.Seed}}
	ref, err := Infer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refTree, err := tree.ParseNewick(ref.Tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	var repTrees []*tree.Tree
	var repNewicks []string
	for _, task := range plan.Tasks() {
		if task.Kind != phyrun.TaskReplicate {
			continue
		}
		rd, err := ResampleDataset(d, task.ResampleSeed)
		if err != nil {
			t.Fatal(err)
		}
		repCfg := cfg
		repCfg.Seed = task.Seed
		res, err := Infer(rd, repCfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tree.ParseNewick(res.Tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		repTrees = append(repTrees, rt)
		repNewicks = append(repNewicks, res.Tree)
	}
	if !reflect.DeepEqual(got.ReplicateTrees, repNewicks) {
		t.Fatalf("replicate trees differ from the flat oracle:\n%v\n%v", got.ReplicateTrees, repNewicks)
	}
	sup, err := bootstrap.SupportValues(refTree, repTrees)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Supports, sup) {
		t.Fatalf("supports differ from the flat oracle: %v vs %v", got.Supports, sup)
	}
	annotated, err := bootstrap.AnnotatedNewick(refTree, sup)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestTree != annotated {
		t.Fatalf("annotated best tree differs:\n%s\n%s", got.BestTree, annotated)
	}
	cons, csup, err := bootstrap.Consensus(repTrees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConsensusTree != cons.Newick() || !reflect.DeepEqual(got.ConsensusSupports, csup) {
		t.Fatal("consensus differs from the flat oracle")
	}
}

// TestBootstrapWorkerCountInvariance: the Workers option changes
// wall-clock behavior only, never results.
func TestBootstrapWorkerCountInvariance(t *testing.T) {
	d, err := Simulate(8, 1, 150, 72)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 21}
	seq, err := BootstrapWithOptions(d, cfg, 4, BootstrapOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BootstrapWithOptions(d, cfg, 4, BootstrapOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results vary with worker count:\n%+v\n%+v", seq, par)
	}
}

// TestBootstrapSplittableSeeding pins that replicate seeds are split
// per task rather than drawn in sequence. The oracle below is the
// sequential scheme the orchestrator replaced: resample draws from one
// generator (cfg.Seed^0x0b00f5) and replicate search seeds cfg.Seed+r+1.
// The default path must produce a different replicate sequence.
func TestBootstrapSplittableSeeding(t *testing.T) {
	d, err := Simulate(8, 2, 200, 73)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 17}
	const B = 3

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0b00f5))
	var oracle []string
	for r := 0; r < B; r++ {
		resampled, err := bootstrap.Resample(d.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		repCfg := cfg
		repCfg.Seed = cfg.Seed + int64(r) + 1
		res, err := Infer(&Dataset{d: resampled}, repCfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, res.Tree)
	}

	modern, err := Bootstrap(d, cfg, B)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(modern.ReplicateTrees, oracle) {
		t.Fatal("splittable seeding produced the sequential replicate sequence — seeds are not actually split")
	}
}

// TestBootstrapAutoStop: on a strong-signal dataset the replicates are
// near-duplicates, so adaptive bootstopping must stop before the fixed
// budget, at a concurrency-independent point, with supports on the
// converged prefix identical to the fixed-B run's over that prefix.
func TestBootstrapAutoStop(t *testing.T) {
	// Long genes + parsimony starts give near-duplicate replicate
	// topologies; cutoff 0.15 is between this dataset's pseudo-half
	// distance and a divergent one's (see TestBootstrapAutoStopDivergent).
	d, err := Simulate(6, 1, 400, 75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 29, ParsimonyStartTree: true}
	const B = 12

	fixed, err := Bootstrap(d, cfg, B)
	if err != nil {
		t.Fatal(err)
	}

	var prev *BootstrapResult
	for _, workers := range []int{1, 3} {
		adaptive, err := BootstrapWithOptions(d, cfg, B, BootstrapOptions{
			AutoStop: true, AutoStopEvery: 4, AutoStopCutoff: 0.15, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !adaptive.Converged {
			t.Fatal("strong-signal bootstrap did not converge — criterion or data broken")
		}
		if adaptive.Replicates >= B {
			t.Fatalf("converged run used %d replicates, no fewer than the budget %d", adaptive.Replicates, B)
		}
		n := adaptive.Replicates
		if !reflect.DeepEqual(adaptive.ReplicateTrees, fixed.ReplicateTrees[:n]) {
			t.Fatal("converged prefix trees differ from the fixed-B run's prefix")
		}
		// Supports on the prefix: recompute from the fixed run's trees.
		var prefixTrees []*tree.Tree
		for _, nw := range fixed.ReplicateTrees[:n] {
			pt, err := tree.ParseNewick(nw, 1)
			if err != nil {
				t.Fatal(err)
			}
			prefixTrees = append(prefixTrees, pt)
		}
		ref, err := Infer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tree.ParseNewick(ref.Tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantSup, err := bootstrap.SupportValues(rt, prefixTrees)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adaptive.Supports, wantSup) {
			t.Fatalf("adaptive supports differ from fixed-B prefix supports:\n%v\n%v", adaptive.Supports, wantSup)
		}
		if prev != nil && !reflect.DeepEqual(adaptive, prev) {
			t.Fatal("bootstop outcome depends on worker count")
		}
		prev = adaptive
	}
}

// TestBootstrapAutoStopDivergent: a dataset whose replicates disagree
// keeps the criterion above the same cutoff, so the full budget runs.
func TestBootstrapAutoStopDivergent(t *testing.T) {
	d, err := Simulate(8, 1, 400, 75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 29, ParsimonyStartTree: true}
	res, err := BootstrapWithOptions(d, cfg, 8, BootstrapOptions{
		AutoStop: true, AutoStopEvery: 4, AutoStopCutoff: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("divergent bootstrap converged below cutoff — criterion too lax")
	}
	if res.Replicates != 8 {
		t.Fatalf("unconverged run used %d replicates, want the full budget 8", res.Replicates)
	}
}

// TestResampleDatasetPure: resampling is a pure function of (dataset,
// seed) — the property that makes local and service replicates
// bit-identical.
func TestResampleDatasetPure(t *testing.T) {
	d, err := Simulate(6, 2, 100, 74)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ResampleDataset(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResampleDataset(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Infer(a, Config{Ranks: 1, MaxIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Infer(b, Config{Ranks: 1, MaxIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Tree != rb.Tree || math.Float64bits(ra.LogLikelihood) != math.Float64bits(rb.LogLikelihood) {
		t.Fatal("same (dataset, seed) produced different replicates")
	}
}
