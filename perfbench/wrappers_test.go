package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
)

// tinyWorkloads shrink each benchmark workload to a shape that runs in
// well under a second but keeps its scheme, rate model, distribution,
// ranks × threads and transport.
func tinyWorkloads(t *testing.T) []workload {
	var out []workload
	for _, name := range []string{"fig3-long", "fig4-partitioned", "table1-forkjoin-tcp"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		w.Taxa, w.MaxIterations = 8, 1
		if w.Genes > 0 {
			w.Genes, w.GeneLen = 4, 60
		} else {
			w.Sites = 400
		}
		out = append(out, w)
	}
	return out
}

// runBoth runs one untraced and one traced inference of w on the same
// input. A TCP workload's worker rank runs on a goroutine of this
// process instead of a child process.
func runBoth(t *testing.T, w workload) (plain, traced *outcome) {
	t.Helper()
	dir := t.TempDir()
	if err := w.generate(dir, 7); err != nil {
		t.Fatal(err)
	}
	in, err := readInput(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []bool{false, true} {
		a := runArgs{w: w, dir: dir, seed: 7, traced: tr, spawned: time.Now()}
		var werr chan error
		launch := func() error { return nil }
		if w.TCP {
			if a.addr, err = freeLoopbackAddr(); err != nil {
				t.Fatal(err)
			}
			a.nonce = uint64(time.Now().UnixNano())
			werr = make(chan error, 1)
			launch = func() error {
				go func(a runArgs) { werr <- runWorker(a) }(a)
				return nil
			}
		}
		var out *outcome
		if tr {
			out, err = tracedInference(a, in, launch)
		} else {
			out, err = plainInference(a, in, launch)
		}
		if err != nil {
			t.Fatalf("%s traced=%v: %v", w.Name, tr, err)
		}
		if werr != nil {
			if err := <-werr; err != nil {
				t.Fatalf("%s traced=%v worker: %v", w.Name, tr, err)
			}
		}
		if tr {
			traced = out
		} else {
			plain = out
		}
	}
	return plain, traced
}

func TestWrappersLeaveResultsBitIdentical(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			plain, traced := runBoth(t, w)
			if plain.LnLBits != traced.LnLBits || plain.Tree != traced.Tree {
				t.Fatalf("traced run differs: lnL bits %016x vs %016x, trees equal %v",
					plain.LnLBits, traced.LnLBits, plain.Tree == traced.Tree)
			}
			l := traced.Layers
			if l["search.iterations"] != 1 || l["msa.patterns"] <= 0 {
				t.Errorf("implausible layers: iterations %v patterns %v", l["search.iterations"], l["msa.patterns"])
			}
			scheme := "decentral"
			if w.Scheme == examl.ForkJoin {
				scheme = "forkjoin"
			}
			if l[scheme+".evaluate.calls"] == 0 || l["likelihood.evaluate_calls"] == 0 {
				t.Errorf("%s engine or kernel calls were not seen", scheme)
			}
			if w.TCP && (l["mpinet.frames"] == 0 || l["mpi.traversal-descriptor.ops"] == 0) {
				t.Errorf("TCP run saw %v frames and %v descriptor broadcasts", l["mpinet.frames"], l["mpi.traversal-descriptor.ops"])
			}
			// Attribution closes: search, engine, kernel and collective
			// time leave only a small remainder of the inference.
			if u, infer := l["unattributed_s"], l["trace.infer_s"]; u < -1e-3 || u > 0.25*infer {
				t.Errorf("unattributed %v s of %v s", u, infer)
			}
		})
	}
}

func TestGateTakesFirstResultAsExpectation(t *testing.T) {
	w := workload{Taxa: 3}
	good := &outcome{LnLBits: 0xc000000000000000, Tree: "(a:1,b:1,c:1);"}
	var want fingerprint
	if err := gate(w, good, &want); err != nil {
		t.Fatal(err)
	}
	if err := gate(w, good, &want); err != nil {
		t.Errorf("identical result rejected: %v", err)
	}
	other := *good
	other.LnLBits++
	if err := gate(w, &other, &want); err == nil {
		t.Error("a result with different lnL bits passed")
	}
	if err := gate(w, &outcome{LnLBits: 0x3ff0000000000000, Tree: good.Tree}, &fingerprint{}); err == nil {
		t.Error("a positive lnL passed")
	}
	if err := gate(workload{Taxa: 4}, good, &fingerprint{}); err == nil {
		t.Error("a tree with the wrong taxon count passed")
	}
}

func TestHardwareGuard(t *testing.T) {
	if err := hardwareGuard(workload{Name: "big", Ranks: 1 << 20, Threads: 1}); err == nil {
		t.Error("a workload needing more CPUs than the machine has was accepted")
	}
	if err := hardwareGuard(workload{Name: "one", Ranks: 1, Threads: 1}); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name+" "+d.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.EndToEnd), names(endToEndDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program prints %v", got, want)
	}
	if got, want := names(spec.PerLayer), names(perLayerDefs()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var prog []string
	for _, w := range workloads {
		prog = append(prog, w.Name)
	}
	if !reflect.DeepEqual(wl, prog) {
		t.Errorf("workloads %v, program has %v", wl, prog)
	}
}

// TestReferencesCoverDefaultSeed checks the recorded correctness gate:
// every workload has one fingerprint per dataset at the default seed.
func TestReferencesCoverDefaultSeed(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		fps := refs.Workloads[w.Name]["1"]
		if refs.DefaultSeed != 1 || len(fps) != datasets {
			t.Errorf("%s: %d fingerprints at default seed %d, want %d", w.Name, len(fps), refs.DefaultSeed, datasets)
		}
	}
}
