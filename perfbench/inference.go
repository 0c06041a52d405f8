package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro"
)

// outcome is what one measured inference process reports to the driver,
// as one JSON line on its standard output.
type outcome struct {
	LnLBits uint64  `json:"lnl_bits"`
	Tree    string  `json:"tree"`
	InferS  float64 `json:"infer_s"`
	SetupS  float64 `json:"setup_s"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// input is one dataset as the program receives it: PHYLIP text and a
// RAxML partition scheme (empty for an unpartitioned alignment).
type input struct {
	alignment, partitions []byte
}

func readInput(dir string) (input, error) {
	aln, err := os.ReadFile(filepath.Join(dir, alignmentFile))
	if err != nil {
		return input{}, err
	}
	parts, err := os.ReadFile(filepath.Join(dir, partitionFile))
	if err != nil {
		return input{}, err
	}
	return input{alignment: aln, partitions: parts}, nil
}

// runArgs are the arguments shared by the child and worker modes.
type runArgs struct {
	w       workload
	dir     string
	seed    int64
	traced  bool
	addr    string
	nonce   uint64
	spawned time.Time // when the driver started this process
	spans   string    // where a traced run writes its spans
}

// measure runs one inference the way a user runs examl and returns its
// outcome. Everything before the engine's clock starts (process start,
// reading and parsing the PHYLIP text, compression, and over TCP
// starting the worker process and the rendezvous) is setup. The worker
// starts only once rank 0 has its dataset, right before rank 0 listens,
// so its first dial never races the listener into a retry backoff.
func measure(a runArgs) (*outcome, error) {
	in, err := readInput(a.dir)
	if err != nil {
		return nil, err
	}
	var worker *exec.Cmd
	launch := func() error { return nil }
	if a.w.TCP {
		if a.addr, err = freeLoopbackAddr(); err != nil {
			return nil, err
		}
		a.nonce = uint64(time.Now().UnixNano())
		launch = func() (err error) {
			worker, err = startWorker(a)
			return err
		}
	}
	var out *outcome
	if a.traced {
		out, err = tracedInference(a, in, launch)
	} else {
		out, err = plainInference(a, in, launch)
	}
	if worker != nil {
		if err != nil {
			worker.Process.Kill()
		}
		if werr := worker.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("worker rank: %w", werr)
		}
	}
	return out, err
}

// plainInference is the untraced run: examl.LoadPhylip, then
// examl.Infer or (over TCP) launch and examl.InferNet as rank 0.
func plainInference(a runArgs, in input, launch func() error) (*outcome, error) {
	d, err := examl.LoadPhylip(bytes.NewReader(in.alignment), string(in.partitions))
	if err != nil {
		return nil, err
	}
	if err := launch(); err != nil {
		return nil, err
	}
	cfg := a.w.config(a.seed)
	call := time.Now()
	var res *examl.Result
	if a.w.TCP {
		nr, err := examl.InferNet(d, cfg, examl.NetConfig{Rank: 0, Size: a.w.Ranks, Addr: a.addr, Nonce: a.nonce})
		if err != nil {
			return nil, err
		}
		res = nr.Result
	} else if res, err = examl.Infer(d, cfg); err != nil {
		return nil, err
	}
	outside := time.Since(call).Seconds() - res.WallSeconds
	return &outcome{
		LnLBits: math.Float64bits(res.LogLikelihood),
		Tree:    res.Tree,
		InferS:  res.WallSeconds,
		SetupS:  call.Sub(a.spawned).Seconds() + outside,
	}, nil
}

// runWorker is rank 1 of a TCP workload, started by rank 0's process.
// It runs the same path as rank 0: examl.InferNet untraced, the
// exported layer constructors traced.
func runWorker(a runArgs) error {
	in, err := readInput(a.dir)
	if err != nil {
		return err
	}
	if a.traced {
		return tracedWorker(a, in)
	}
	d, err := examl.LoadPhylip(bytes.NewReader(in.alignment), string(in.partitions))
	if err != nil {
		return err
	}
	_, err = examl.InferNet(d, a.w.config(a.seed), examl.NetConfig{Rank: 1, Size: a.w.Ranks, Addr: a.addr, Nonce: a.nonce})
	return err
}

// startWorker launches rank 1 as a fresh process of this binary. Its
// output goes to this process's standard error, which the driver passes
// through.
func startWorker(a runArgs) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"worker",
		"-workload", a.w.Name, "-dir", a.dir, "-seed", strconv.FormatInt(a.seed, 10),
		"-addr", a.addr, "-nonce", strconv.FormatUint(a.nonce, 10),
		"-traced=" + strconv.FormatBool(a.traced)}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker rank: %w", err)
	}
	return cmd, nil
}

// freeLoopbackAddr reserves a currently free loopback port for the
// rendezvous.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// writeOutcome prints the outcome as the process's last stdout line.
func writeOutcome(o *outcome) error {
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
