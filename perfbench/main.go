// Command perfbench is examl's end-to-end benchmark: whole maximum-
// likelihood inferences on the paper's three run shapes (Fig. 3, Fig. 4
// and the Table-I fork-join mix), each measured in a fresh process
// through the public examl API, with a traced run that breaks the
// inference time down by layer. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig3-long --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object.
// Internal modes: `child` runs one measured inference, `worker` is rank
// 1 of a TCP inference, and `record` rewrites reference.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	args := os.Args[1:]
	mode := ""
	if len(args) > 0 {
		mode = args[0]
	}
	var err error
	switch mode {
	case "child":
		err = childMain(args[1:])
	case "worker":
		err = workerMain(args[1:])
	case "record":
		err = recordMain(args[1:])
	default:
		err = driverMain(args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func driverMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o driveOptions
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name ("+workloadNames()+"), or all to run each in turn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks the simulated alignments and starting trees")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to keep starting measured inferences")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced inference and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for generated inputs and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	if o.workload != "all" {
		return drive(o)
	}
	for _, w := range workloads {
		o.workload = w.Name
		if err := drive(o); err != nil {
			return err
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// parseRunArgs reads the flags of the child and worker modes.
func parseRunArgs(mode string, args []string) (runArgs, error) {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	var (
		a       runArgs
		name    string
		spawned int64
	)
	fs.StringVar(&name, "workload", "", "workload name")
	fs.StringVar(&a.dir, "dir", "", "dataset directory")
	fs.Int64Var(&a.seed, "seed", 0, "starting-tree seed")
	fs.BoolVar(&a.traced, "traced", false, "run the traced wiring")
	fs.StringVar(&a.spans, "spans", "", "traced run: write spans here")
	fs.Int64Var(&spawned, "spawned", 0, "unix ns at which the driver started this process")
	fs.StringVar(&a.addr, "addr", "", "worker: rendezvous address of rank 0")
	fs.Uint64Var(&a.nonce, "nonce", 0, "worker: run nonce")
	if err := fs.Parse(args); err != nil {
		return a, err
	}
	w, err := findWorkload(name)
	if err != nil {
		return a, err
	}
	a.w = w
	a.spawned = time.Unix(0, spawned)
	return a, nil
}

func childMain(args []string) error {
	a, err := parseRunArgs("child", args)
	if err != nil {
		return err
	}
	out, err := measure(a)
	if err != nil {
		return err
	}
	return writeOutcome(out)
}

func workerMain(args []string) error {
	a, err := parseRunArgs("worker", args)
	if err != nil {
		return err
	}
	return runWorker(a)
}

func recordMain(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	seeds := fs.String("seeds", "1", "seed range to record, as lo-hi or one seed")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for generated inputs")
	out := fs.String("out", "perfbench/reference.json", "reference file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	if !ok {
		hi = lo
	}
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("bad -seeds %q", *seeds)
	}
	var list []int64
	for s := from; s <= to; s++ {
		list = append(list, s)
	}
	return record(list, *workdir, *out)
}
