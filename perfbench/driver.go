package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/tree"
)

// childTimeout bounds one measured inference process; a hung run is
// killed with its whole process group and counted as failed.
const childTimeout = 60 * time.Second

// sample is one measured inference: the child's outcome plus the
// resource usage of its process tree.
type sample struct {
	out   *outcome
	cpuS  float64 // user + system CPU of the child and the processes it waited for
	rssMB float64 // largest peak resident set among them
}

// spawn runs one inference in a fresh process of this binary and waits
// for it. The process gets its own process group, which is killed on
// the way out so that no rank outlives the measurement, and its CPU
// share as GOMAXPROCS, which a TCP worker rank inherits.
func spawn(w workload, dir string, seed int64, traced bool, spans string) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spawned := time.Now()
	cmd := exec.Command(self, "child",
		"-workload", w.Name, "-dir", dir, "-seed", strconv.FormatInt(seed, 10),
		"-spawned", strconv.FormatInt(spawned.UnixNano(), 10),
		"-traced="+strconv.FormatBool(traced), "-spans", spans)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.procsPerProcess()))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	killGroup := func() { _ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) } // ESRCH once the group is gone
	timer := time.AfterFunc(childTimeout, killGroup)
	err = cmd.Wait()
	timer.Stop()
	killGroup()
	if err != nil {
		return nil, fmt.Errorf("inference process: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no resource usage for the inference process")
	}
	// wait4 reports the child together with every process it waited
	// for (the TCP worker rank): CPU times are summed, maxrss is the
	// largest of them, in KiB.
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	out, err := lastJSONLine(stdout.Bytes())
	if err != nil {
		return nil, err
	}
	return &sample{out: out, cpuS: cpu.Seconds(), rssMB: float64(ru.Maxrss) / 1024}, nil
}

func lastJSONLine(b []byte) (*outcome, error) {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("inference process output: %w", err)
	}
	return &out, nil
}

// fingerprint identifies a result for the correctness gate: the final
// lnL's bits and the SHA-256 of the final Newick tree.
type fingerprint struct {
	LnLBits    string `json:"lnl_bits"`
	TreeSHA256 string `json:"tree_sha256"`
}

func fingerprintOf(o *outcome) fingerprint {
	sum := sha256.Sum256([]byte(o.Tree))
	return fingerprint{LnLBits: fmt.Sprintf("%016x", o.LnLBits), TreeSHA256: hex.EncodeToString(sum[:])}
}

// referenceFile holds the recorded fingerprints: workload → seed →
// one per dataset. Regenerate it with `perfbench record` whenever a
// change is meant to alter results.
//
//go:embed reference.json
var referenceFile []byte

type references struct {
	DefaultSeed int64                               `json:"default_seed"`
	Workloads   map[string]map[string][]fingerprint `json:"workloads"`
}

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referenceFile, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// sane checks what holds for any correct result: a finite negative
// lnL and a tree over exactly the workload's taxa.
func sane(w workload, o *outcome) error {
	lnl := math.Float64frombits(o.LnLBits)
	if math.IsNaN(lnl) || math.IsInf(lnl, 0) || lnl >= 0 {
		return fmt.Errorf("final lnL %v is not a finite negative number", lnl)
	}
	t, err := tree.ParseNewick(o.Tree, 1)
	if err != nil {
		return fmt.Errorf("final tree: %w", err)
	}
	if len(t.Taxa) != w.Taxa {
		return fmt.Errorf("final tree has %d taxa, want %d", len(t.Taxa), w.Taxa)
	}
	return nil
}

// gate checks one result against the expected fingerprint of its
// dataset. Without a recorded reference the first sane result of the
// run becomes the expectation, so every later run — the traced one
// included — must reproduce it bit for bit.
func gate(w workload, o *outcome, want *fingerprint) error {
	if err := sane(w, o); err != nil {
		return err
	}
	got := fingerprintOf(o)
	if want.LnLBits == "" {
		*want = got
		return nil
	}
	if got != *want {
		return fmt.Errorf("result differs from the expected one: lnL bits %s tree %s, want %s tree %s",
			got.LnLBits, got.TreeSHA256[:12], want.LnLBits, want.TreeSHA256[:12])
	}
	return nil
}

// hardwareGuard refuses a workload the machine cannot give its ranks ×
// threads CPUs: such a run would measure oversubscription, not the
// program (the same rule cmd/benchjson applies to thread rows).
func hardwareGuard(w workload) error {
	if n, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); n < w.cpus() || procs < w.cpus() {
		return fmt.Errorf("refusing to measure %s: it needs %d CPUs (%d ranks x %d threads), the machine gives nproc %d, GOMAXPROCS %d",
			w.Name, w.cpus(), w.Ranks, w.Threads, n, procs)
	}
	return nil
}

// environment describes the machine a result set was measured on.
func environment() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("go=%s cpu=%q nproc=%d gomaxprocs=%d os=%s/%s",
		runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
}

// prepare writes the run's datasets under workdir and returns their
// directories.
func prepare(w workload, workdir string, seed int64) ([]string, error) {
	dirs := make([]string, datasets)
	for i := range dirs {
		dirs[i] = filepath.Join(workdir, fmt.Sprintf("%s-seed%d", w.Name, seed), fmt.Sprintf("data%d", i))
		if err := w.generate(dirs[i], dataSeed(seed, i)); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type driveOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// drive is one benchmark run: a closed loop with one client — one
// inference at a time, each in a fresh process, cycling over the run's
// datasets — for the given seconds, then (with trace) one traced
// inference. It prints the environment, a table of every metric with
// its unit and sample count, and the result as the last line.
func drive(o driveOptions) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := hardwareGuard(w); err != nil {
		return err
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.Name, o.seed, o.seconds, o.trace)
	fmt.Printf("# env %s\n", environment())
	fmt.Printf("# shape %s\n", w.describe())
	fmt.Printf("# why %s\n", w.Why)
	dirs, err := prepare(w, o.workdir, o.seed)
	if err != nil {
		return err
	}
	want := make([]fingerprint, datasets)
	recorded := refs.Workloads[w.Name][strconv.FormatInt(o.seed, 10)]
	if len(recorded) == datasets {
		copy(want, recorded)
		fmt.Printf("# correctness: checked against the recorded reference for seed %d\n", o.seed)
	} else {
		fmt.Printf("# correctness: no recorded reference for seed %d; every run must reproduce the first\n", o.seed)
	}

	res := result{Metrics: map[string]metricValue{}}
	perDataset := make([][]*sample, datasets)
	var raw []rawSample
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < datasets || time.Now().Before(deadline); i++ {
		ds := i % datasets
		res.Attempted++
		s, err := spawn(w, dirs[ds], dataSeed(o.seed, ds), false, "")
		if err == nil {
			err = gate(w, s.out, &want[ds])
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s dataset %d: %v\n", w.Name, ds, err)
			continue
		}
		perDataset[ds] = append(perDataset[ds], s)
		raw = append(raw, rawSample{ds, s.out.InferS, s.out.SetupS, s.cpuS, s.rssMB})
	}
	samplesPath := filepath.Join(filepath.Dir(dirs[0]), "samples.jsonl")
	if err := writeJSONLines(samplesPath, raw); err != nil {
		return err
	}
	n := 0
	inferMedians := make([]float64, datasets)
	for ds, ss := range perDataset {
		if len(ss) == 0 {
			fmt.Printf("# dataset %d: no successful inference\n", ds)
			continue
		}
		n += len(ss)
		infer := make([]float64, len(ss))
		for i, s := range ss {
			infer[i] = s.out.InferS
		}
		inferMedians[ds] = median(infer)
		q1, q3 := quartiles(infer)
		fmt.Printf("# dataset %d: %d inferences, infer_s median %.4g (quartiles %.4g, %.4g)\n", ds, len(ss), inferMedians[ds], q1, q3)
	}
	figures := map[string]func(*sample) float64{
		"infer_s":     func(s *sample) float64 { return s.out.InferS },
		"setup_s":     func(s *sample) float64 { return s.out.SetupS },
		"cpu_s":       func(s *sample) float64 { return s.cpuS },
		"peak_rss_mb": func(s *sample) float64 { return s.rssMB },
	}
	if n == 0 {
		return fmt.Errorf("%s: no inference succeeded", w.Name)
	}
	endToEnd := map[string]float64{}
	for name, f := range figures {
		endToEnd[name] = meanOfMedians(perDataset, f)
	}

	fmt.Printf("%-44s %16s %-16s %s\n", "metric", "value", "unit", "samples")
	if !o.trace {
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{endToEnd[d.Name], d.Unit}
			fmt.Printf("%-44s %16.6g %-16s %d\n", d.Name, endToEnd[d.Name], d.Unit, n)
		}
	} else {
		res.Attempted++
		spans := filepath.Join(filepath.Dir(dirs[0]), "spans.jsonl")
		s, err := spawn(w, dirs[0], dataSeed(o.seed, 0), true, spans)
		if err == nil {
			err = gate(w, s.out, &want[0])
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", w.Name, err)
		} else {
			if inferMedians[0] > 0 {
				s.out.Layers["trace_overhead"] = s.out.InferS / inferMedians[0]
			}
			for _, d := range perLayerDefs() {
				res.Metrics[d.Name] = metricValue{s.out.Layers[d.Name], d.Unit}
				fmt.Printf("%-44s %16.6g %-16s 1\n", d.Name, s.out.Layers[d.Name], d.Unit)
			}
			fmt.Printf("# spans written to %s\n", spans)
		}
	}
	fmt.Printf("%-44s %16d %-16s %d attempted\n", "failed_runs", res.Failed, "count", res.Attempted)
	if len(res.Metrics) == 0 {
		return fmt.Errorf("%s: the traced run failed", w.Name)
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// rawSample is one successful measured inference as written to
// samples.jsonl, in the order the loop ran them, for offline analysis
// (A/B pairing, other estimators).
type rawSample struct {
	Dataset int     `json:"dataset"`
	InferS  float64 `json:"infer_s"`
	SetupS  float64 `json:"setup_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"peak_rss_mb"`
}

// meanOfMedians is a run's figure for one metric: the median over each
// dataset's samples, averaged over the datasets that have any.
func meanOfMedians(perDataset [][]*sample, f func(*sample) float64) float64 {
	var sum float64
	var n int
	for _, ss := range perDataset {
		if len(ss) == 0 {
			continue
		}
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		sum += median(xs)
		n++
	}
	return sum / float64(n)
}

// record runs one untraced inference per workload, seed and dataset and
// writes their fingerprints as the new reference file.
func record(seeds []int64, workdir, out string) error {
	refs := references{DefaultSeed: 1, Workloads: map[string]map[string][]fingerprint{}}
	for _, w := range workloads {
		if err := hardwareGuard(w); err != nil {
			return err
		}
		refs.Workloads[w.Name] = map[string][]fingerprint{}
		for _, seed := range seeds {
			dirs, err := prepare(w, workdir, seed)
			if err != nil {
				return err
			}
			for ds, dir := range dirs {
				s, err := spawn(w, dir, dataSeed(seed, ds), false, "")
				if err != nil {
					return fmt.Errorf("%s seed %d dataset %d: %w", w.Name, seed, ds, err)
				}
				if err := sane(w, s.out); err != nil {
					return fmt.Errorf("%s seed %d dataset %d: %w", w.Name, seed, ds, err)
				}
				key := strconv.FormatInt(seed, 10)
				refs.Workloads[w.Name][key] = append(refs.Workloads[w.Name][key], fingerprintOf(s.out))
			}
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d\n", w.Name, seed)
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
