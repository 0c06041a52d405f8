package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"repro"
	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/forkjoin"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/traversal"
)

// The traced run wires the same inference as examl.Infer / InferNet
// through the exported layer constructors, so that rank 0's
// search.Engine and (over TCP) its mpi.Transport can be wrapped. The
// wrappers only time calls; the final lnL bits and tree must equal the
// untraced run's, which the driver checks.

// Engine operations timed by tracedEngine, in metric order.
var engineOps = []string{
	"evaluate", "traverse", "prepare_branch", "branch_derivatives",
	"all_branch_derivatives", "set_shared", "optimize_site_rates",
}

// tracedEngine wraps a search.Engine and records one span per call.
type tracedEngine struct {
	search.Engine
	t     *tracer
	names []string // span names, indexed like engineOps
}

func wrapEngine(e search.Engine, scheme string, t *tracer) *tracedEngine {
	names := make([]string, len(engineOps))
	for i, op := range engineOps {
		names[i] = scheme + "." + op
	}
	return &tracedEngine{Engine: e, t: t, names: names}
}

func (e *tracedEngine) Evaluate(d *traversal.Descriptor) []float64 {
	s := e.t.now()
	out := e.Engine.Evaluate(d)
	e.t.record(e.names[0], s)
	return out
}

func (e *tracedEngine) Traverse(d *traversal.Descriptor) {
	s := e.t.now()
	e.Engine.Traverse(d)
	e.t.record(e.names[1], s)
}

func (e *tracedEngine) PrepareBranch(d *traversal.Descriptor) {
	s := e.t.now()
	e.Engine.PrepareBranch(d)
	e.t.record(e.names[2], s)
}

func (e *tracedEngine) BranchDerivatives(ts []float64) (d1, d2 []float64) {
	s := e.t.now()
	d1, d2 = e.Engine.BranchDerivatives(ts)
	e.t.record(e.names[3], s)
	return d1, d2
}

func (e *tracedEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	s := e.t.now()
	out := e.Engine.AllBranchDerivatives(plan)
	e.t.record(e.names[4], s)
	return out
}

func (e *tracedEngine) SetShared(params [][]float64) {
	s := e.t.now()
	e.Engine.SetShared(params)
	e.t.record(e.names[5], s)
}

func (e *tracedEngine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	s := e.t.now()
	out := e.Engine.OptimizeSiteRates(d)
	e.t.record(e.names[6], s)
	return out
}

// timedTransport wraps an mpi.Transport and times every Send and Recv,
// counting frames and payload bytes. The calls are summed, not recorded
// as spans: each one sits inside a collective span of the telemetry
// stream, which already places that time in the span tree.
type timedTransport struct {
	inner                mpi.Transport
	t                    *tracer
	sendNS, recvNS       int64
	frames, payloadBytes int64
}

func (tt *timedTransport) count(m mpi.Message) {
	tt.frames++
	tt.payloadBytes += int64(8*len(m.F64) + len(m.Raw))
}

func (tt *timedTransport) Send(to int, m mpi.Message) error {
	s := tt.t.now()
	err := tt.inner.Send(to, m)
	tt.sendNS += tt.t.now() - s
	tt.count(m)
	return err
}

func (tt *timedTransport) Recv(from int) (mpi.Message, error) {
	s := tt.t.now()
	m, err := tt.inner.Recv(from)
	tt.recvNS += tt.t.now() - s
	tt.count(m)
	return m, err
}

func (tt *timedTransport) Close() error { return tt.inner.Close() }

// searchConfig mirrors what examl.Infer derives from workload.config.
func searchConfig(w workload, seed int64) search.Config {
	het := model.Gamma
	if w.Rate == examl.PSR {
		het = model.PSR
	}
	return search.Config{Het: het, Subst: model.GTR, MaxIterations: w.MaxIterations, Seed: seed}
}

func strategy(w workload) distrib.Strategy {
	if w.Dist == examl.MPS {
		return distrib.MPS
	}
	return distrib.Cyclic
}

// loadTraced parses and compresses the input with spans around
// msa.ParsePhylip and msa.Compress, the calls examl.LoadPhylip makes.
func loadTraced(in input, t *tracer) (*msa.Dataset, error) {
	s := t.now()
	a, err := msa.ParsePhylip(bytes.NewReader(in.alignment))
	if err != nil {
		return nil, err
	}
	var parts []msa.Partition
	if len(bytes.TrimSpace(in.partitions)) > 0 {
		if parts, err = msa.ParsePartitionFile(string(in.partitions), a.NSites()); err != nil {
			return nil, err
		}
	}
	t.record("msa.parse", s)
	s = t.now()
	d, err := msa.Compress(a, parts)
	t.record("msa.compress", s)
	return d, err
}

func assignment(w workload, d *msa.Dataset) (*distrib.Assignment, error) {
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	return distrib.Compute(strategy(w), counts, w.Ranks)
}

// traceState is what a traced run hands to layerMetrics.
type traceState struct {
	t         *tracer
	scheme    string
	patterns  int
	wall      time.Duration
	runStart  int64   // tracer time Searcher.Run began
	iterEnds  []int64 // tracer times each search iteration ended
	report    *telemetry.Report
	meter     mpi.Snapshot
	stream    *bytes.Buffer // telemetry JSONL
	transport *timedTransport
}

// tracedInference runs the traced inference on rank 0 (and, in-process,
// on every other rank without wrappers), writes its spans, and returns
// the outcome with per-layer metrics.
func tracedInference(a runArgs, in input, launch func() error) (out *outcome, err error) {
	t := newTracer(fmt.Sprintf("%s/seed%d", a.w.Name, a.seed))
	d, err := loadTraced(in, t)
	if err != nil {
		return nil, err
	}
	assign, err := assignment(a.w, d)
	if err != nil {
		return nil, err
	}
	if err := launch(); err != nil {
		return nil, err
	}
	st := &traceState{t: t, patterns: d.TotalPatterns(), stream: &bytes.Buffer{}}
	var res *search.Result
	if a.w.TCP {
		res, err = tracedForkJoinMaster(a, d, assign, st)
	} else {
		res, err = tracedDecentral(a, d, assign, st)
	}
	if err != nil {
		return nil, err
	}
	layers, err := layerMetrics(st)
	if err != nil {
		return nil, err
	}
	if a.spans != "" {
		if err := writeJSONLines(a.spans, t.spans); err != nil {
			return nil, err
		}
	}
	return &outcome{
		LnLBits: math.Float64bits(res.LnL),
		Tree:    res.Tree.Newick(),
		InferS:  st.wall.Seconds(),
		Layers:  layers,
	}, nil
}

// rankSearch builds the searcher over eng on one rank and runs it, with
// spans on rank 0 (t is nil elsewhere and records nothing).
func rankSearch(eng search.Engine, d *msa.Dataset, scfg search.Config, st *traceState, t *tracer) (*search.Result, error) {
	if t != nil {
		eng = wrapEngine(eng, st.scheme, t)
		scfg.OnIteration = func(_ *search.Searcher, _ int, _ float64) {
			st.iterEnds = append(st.iterEnds, t.now())
		}
	}
	s := t.now()
	sr, err := search.NewSearcher(eng, d, scfg)
	t.record("search.new", s)
	if err != nil {
		return nil, err
	}
	s = t.now()
	res, err := sr.Run()
	t.record("search.run", s)
	if t != nil {
		st.runStart = s
	}
	return res, err
}

// tracedDecentral is decentral.Run with rank 0 instrumented.
func tracedDecentral(a runArgs, d *msa.Dataset, assign *distrib.Assignment, st *traceState) (*search.Result, error) {
	w, t := a.w, st.t
	st.scheme = "decentral"
	world := mpi.NewWorld(w.Ranks)
	col := telemetry.NewCollector(w.Ranks, int(mpi.NumCommClasses), st.stream)
	scfg := searchConfig(w, a.seed)
	results := make([]*search.Result, w.Ranks)
	errs := make([]error, w.Ranks)
	var mu sync.Mutex

	start := time.Now()
	inferStart := t.now()
	world.Run(func(c *mpi.Comm) {
		var rt *tracer
		if c.Rank() == 0 {
			rt = t
		}
		rec := col.Recorder(c.Rank())
		res, err := func() (*search.Result, error) {
			s := rt.now()
			eng, err := decentral.NewEngine(c, d, assign, decentral.EngineConfig{
				Het: scfg.Het, Subst: scfg.Subst, Threads: w.Threads, Recorder: rec,
			})
			rt.record("decentral.build", s)
			if err != nil {
				return nil, err
			}
			rcfg := scfg
			rcfg.Telemetry = rec
			res, err := rankSearch(eng, d, rcfg, st, rt)
			s = rt.now()
			eng.Close()
			rt.record("decentral.close", s)
			return res, err
		}()
		mu.Lock()
		results[c.Rank()], errs[c.Rank()] = res, err
		mu.Unlock()
	})
	st.wall = time.Since(start)
	t.record("infer", inferStart)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	ref := results[0]
	for r := 1; r < w.Ranks; r++ {
		if math.Float64bits(results[r].LnL) != math.Float64bits(ref.LnL) || results[r].Tree.Newick() != ref.Tree.Newick() {
			return nil, fmt.Errorf("rank %d diverged from rank 0", r)
		}
	}
	st.meter = world.Meter().Snapshot()
	st.report = finalize(col, st.wall, w.Threads, st.meter)
	return ref, nil
}

// tracedForkJoinMaster is rank 0 of forkjoin.RunOnComm over mpinet with
// the transport and the master engine instrumented. The worker process
// runs tracedWorker.
func tracedForkJoinMaster(a runArgs, d *msa.Dataset, assign *distrib.Assignment, st *traceState) (res *search.Result, err error) {
	w, t := a.w, st.t
	st.scheme = "forkjoin"
	s := t.now()
	raw, err := mpinet.Connect(mpinet.Config{Rank: 0, Size: w.Ranks, Addr: a.addr, Nonce: a.nonce})
	t.record("mpinet.connect", s)
	if err != nil {
		return nil, err
	}
	st.transport = &timedTransport{inner: raw, t: t}
	comm := mpi.NewComm(st.transport, 0, w.Ranks, mpi.NewMeter())
	defer comm.Close()
	defer recoverCommError(&err)

	col := telemetry.NewCollector(1, int(mpi.NumCommClasses), st.stream)
	rec := col.Recorder(0)
	scfg := searchConfig(w, a.seed)
	scfg.Telemetry = rec

	start := time.Now()
	inferStart := t.now()
	s = t.now()
	eng, err := forkjoin.NewMaster(comm, d, assign, forkjoin.EngineConfig{
		Het: scfg.Het, Subst: scfg.Subst, Threads: w.Threads, Recorder: rec,
	})
	t.record("forkjoin.build", s)
	if err != nil {
		return nil, err
	}
	res, err = rankSearch(eng, d, scfg, st, t)
	// Always release the workers, even after a failed search.
	s = t.now()
	eng.Close()
	t.record("forkjoin.close", s)
	st.wall = time.Since(start)
	t.record("infer", inferStart)
	if err != nil {
		return nil, err
	}
	st.meter = comm.Meter().Snapshot()
	st.report = finalize(col, st.wall, w.Threads, st.meter)
	// Let the worker finish before either side closes its sockets.
	comm.Barrier(mpi.ClassControl)
	return res, nil
}

// tracedWorker is rank 1 of the traced TCP run: the fork-join worker
// loop over an untraced mpinet transport.
func tracedWorker(a runArgs, in input) (err error) {
	d, err := loadTraced(in, nil)
	if err != nil {
		return err
	}
	assign, err := assignment(a.w, d)
	if err != nil {
		return err
	}
	raw, err := mpinet.Connect(mpinet.Config{Rank: 1, Size: a.w.Ranks, Addr: a.addr, Nonce: a.nonce})
	if err != nil {
		return err
	}
	comm := mpi.NewComm(raw, 1, a.w.Ranks, mpi.NewMeter())
	defer comm.Close()
	defer recoverCommError(&err)
	scfg := searchConfig(a.w, a.seed)
	if err := forkjoin.RunWorker(comm, d, assign, forkjoin.EngineConfig{Het: scfg.Het, Subst: scfg.Subst, Threads: a.w.Threads}); err != nil {
		return err
	}
	comm.Barrier(mpi.ClassControl)
	return nil
}

// recoverCommError turns the panic a Comm raises on transport failure
// into an error; any other panic is re-raised.
func recoverCommError(err *error) {
	p := recover()
	if p == nil {
		return
	}
	ce, ok := p.(*mpi.CommError)
	if !ok {
		panic(p)
	}
	*err = ce
}

// finalize builds the telemetry report the way examl does.
func finalize(col *telemetry.Collector, wall time.Duration, threads int, snap mpi.Snapshot) *telemetry.Report {
	names := make([]string, mpi.NumCommClasses)
	for c := mpi.CommClass(0); c < mpi.NumCommClasses; c++ {
		names[c] = c.String()
	}
	return col.Finalize(wall, max(threads, 1), names, snap.Ops[:], snap.Bytes[:])
}
