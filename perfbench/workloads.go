package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/msa"
	"repro/internal/seqgen"
)

// workload is one paper-shaped inference. Its work is fixed by the
// alignment shape and the MaxIterations cap; the seed picks the data.
type workload struct {
	Name string
	Why  string

	// Taxa and Sites shape an unpartitioned alignment
	// (seqgen.LargeUnpartitioned) when Genes is 0; otherwise Genes
	// partitions of GeneLen sites each (seqgen.PartitionedGenes).
	Taxa, Sites    int
	Genes, GeneLen int

	Rate          examl.RateModel
	Dist          examl.Distribution
	Scheme        examl.Scheme
	Ranks         int
	Threads       int
	TCP           bool // ranks are OS processes over loopback TCP
	MaxIterations int
}

// datasets is how many alignments one run draws from its seed. Each is
// inferred in turn, and a run's figure is the mean over datasets of each
// dataset's median, so the search path of one draw does not decide the
// figure.
const datasets = 8

var workloads = []workload{
	{
		Name: "fig3-long",
		Why:  "one long unpartitioned alignment, GTR+G, decentralized, 1 rank x 2 threads in-process: kernel-bound, bypasses communication and partition batching",
		Taxa: 16, Sites: 2000,
		Rate: examl.GAMMA, Dist: examl.Cyclic, Scheme: examl.Decentralized,
		Ranks: 1, Threads: 2, MaxIterations: 1,
	},
	{
		Name: "fig4-partitioned",
		Why:  "100 genes of 150 bp, GTR+PSR, MPS, decentralized, 2 in-process ranks x 1 thread: dispatch- and model-bound, the only PSR site-rate run",
		Taxa: 8, Genes: 100, GeneLen: 150,
		Rate: examl.PSR, Dist: examl.MPS, Scheme: examl.Decentralized,
		Ranks: 2, Threads: 1, MaxIterations: 1,
	},
	{
		Name: "table1-forkjoin-tcp",
		Why:  "10 genes, GTR+G, fork-join, 2 OS processes over loopback TCP x 1 thread: the only run with real wire traffic",
		Taxa: 12, Genes: 10, GeneLen: 300,
		Rate: examl.GAMMA, Dist: examl.Cyclic, Scheme: examl.ForkJoin,
		Ranks: 2, Threads: 1, TCP: true, MaxIterations: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cpus is the number of CPUs the workload occupies: ranks × threads.
func (w workload) cpus() int { return w.Ranks * w.Threads }

// procsPerProcess is the CPU share of one inference process: all ranks
// × threads in-process, one rank's threads per process over TCP. Each
// process runs with GOMAXPROCS set to it, the way MPI ranks are bound to
// their cores; otherwise two TCP rank processes would each schedule on
// every CPU of the machine, which oversubscribes it.
func (w workload) procsPerProcess() int {
	if w.TCP {
		return w.Threads
	}
	return w.cpus()
}

// describe is a one-line summary of the workload's shape.
func (w workload) describe() string {
	shape := fmt.Sprintf("%d taxa x %d sites", w.Taxa, w.Sites)
	if w.Genes > 0 {
		shape = fmt.Sprintf("%d taxa x %d genes x %d bp", w.Taxa, w.Genes, w.GeneLen)
	}
	where := "in-process"
	if w.TCP {
		where = "processes over loopback TCP"
	}
	return fmt.Sprintf("%s, GTR+%s, %s, %s, %d rank(s) x %d thread(s), %s, GOMAXPROCS %d per process, MaxIterations %d, %d datasets per seed",
		shape, w.Rate, w.Scheme, w.Dist, w.Ranks, w.Threads, where, w.procsPerProcess(), w.MaxIterations, datasets)
}

// config is the public inference configuration every run of the
// workload uses; seed drives the starting tree.
func (w workload) config(seed int64) examl.Config {
	return examl.Config{
		Scheme:        w.Scheme,
		Ranks:         w.Ranks,
		Threads:       w.Threads,
		RateModel:     w.Rate,
		Distribution:  w.Dist,
		Seed:          seed,
		MaxIterations: w.MaxIterations,
	}
}

// dataSeed derives dataset i's seed from the run seed.
func dataSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// Input file names inside a dataset directory.
const (
	alignmentFile = "alignment.phy"
	partitionFile = "partitions.txt"
)

// generate simulates the workload's alignment for a dataset seed and
// writes it to dir as PHYLIP text plus a RAxML partition file (empty
// for an unpartitioned alignment), the inputs a user hands examl.
func (w workload) generate(dir string, seed int64) error {
	cfg := seqgen.LargeUnpartitioned(w.Taxa, w.Sites, seed)
	if w.Genes > 0 {
		cfg = seqgen.PartitionedGenes(w.Taxa, w.Genes, w.GeneLen, seed)
	}
	res, err := seqgen.Generate(cfg)
	if err != nil {
		return fmt.Errorf("generate %s: %w", w.Name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, alignmentFile))
	if err != nil {
		return err
	}
	if err := msa.WritePhylip(f, res.Alignment); err != nil {
		f.Close()
		return fmt.Errorf("write alignment: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	parts := ""
	if w.Genes > 0 {
		parts = msa.FormatPartitionFile(res.Partitions)
	}
	return os.WriteFile(filepath.Join(dir, partitionFile), []byte(parts), 0o644)
}
