package main

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEndDefs are the metrics a user of examl sees, measured with
// tracing off. failed_runs is reported as the result's "failed" count.
var endToEndDefs = []metricDef{
	{"infer_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

var schemes = []string{"decentral", "forkjoin"}

// perLayerDefs lists every per-layer metric of a traced run, in output
// order. Every workload reports all of them; a layer the workload does
// not exercise (the other scheme's engine, mpinet in-process) reads 0.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"msa.parse_s", "s"}, {"msa.compress_s", "s"}, {"msa.patterns", "count"},
		{"mpinet.connect_s", "s"}, {"mpinet.send_s", "s"}, {"mpinet.recv_wait_s", "s"},
		{"mpinet.frames", "count"}, {"mpinet.bytes", "bytes"},
		{"search.run_s", "s"}, {"search.self_s", "s"}, {"search.iter_s", "s"},
		{"search.iterations", "count"}, {"search.newton_iterations", "count"},
		{"search.spr_regrafts", "count"}, {"search.traversal_steps_skipped_share", "ratio"},
	}
	for _, sc := range schemes {
		for _, op := range engineOps {
			p := sc + "." + op
			defs = append(defs, metricDef{p + ".calls", "count"}, metricDef{p + ".s", "s"},
				metricDef{p + ".p50_us", "us"}, metricDef{p + ".p99_us", "us"})
		}
		defs = append(defs, metricDef{sc + ".self_s", "s"}, metricDef{sc + ".build_s", "s"})
	}
	for k := telemetry.KernelClass(0); k < telemetry.NumKernelClasses; k++ {
		n := kernelMetricName(k)
		defs = append(defs, metricDef{n + "_s", "s"}, metricDef{n + "_calls", "count"})
	}
	defs = append(defs,
		metricDef{"likelihood.fastpath_share", "ratio"}, metricDef{"likelihood.pcache_hit_rate", "ratio"},
		metricDef{"repeats.saved_share", "ratio"},
		metricDef{"enginecore.batch_fusion", "kernels/dispatch"}, metricDef{"enginecore.batch_dispatches", "count"},
		metricDef{"threadpool.utilization", "ratio"},
	)
	for c := mpi.CommClass(0); c < mpi.NumCommClasses; c++ {
		p := "mpi." + c.String()
		defs = append(defs, metricDef{p + ".ops", "count"}, metricDef{p + ".bytes", "bytes"}, metricDef{p + ".s", "s"})
	}
	return append(defs,
		metricDef{"mpi.collectives_per_iteration", "ops/iteration"},
		metricDef{"mpi.comm_fraction", "ratio"}, metricDef{"mpi.imbalance", "ratio"},
		metricDef{"trace.infer_s", "s"}, metricDef{"unattributed_s", "s"}, metricDef{"trace_overhead", "ratio"},
	)
}

// kernelMetricName maps a kernel class to its metric prefix
// ("likelihood.site_rates" for the "site-rates" class).
func kernelMetricName(k telemetry.KernelClass) string {
	return "likelihood." + strings.ReplaceAll(k.String(), "-", "_")
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, the telemetry report and the meter, all read from rank 0.
// trace_overhead needs the untraced runs and is filled in by the driver.
func layerMetrics(st *traceState) (map[string]float64, error) {
	t, rep := st.t, st.report
	imported, err := telemetrySpans(st.stream.Bytes(), t.base, t.run)
	if err != nil {
		return nil, err
	}
	own := len(t.spans)
	t.spans = append(t.spans, imported...)
	nest(t.spans, own)
	self := selfTimes(t.spans)

	m := map[string]float64{}
	for _, d := range perLayerDefs() {
		m[d.Name] = 0
	}
	m["msa.patterns"] = float64(st.patterns)
	durs := map[string][]int64{}
	selfSum := map[string]int64{}
	for i, s := range t.spans[:own] {
		durs[s.Name] = append(durs[s.Name], s.Dur())
		selfSum[s.Name] += self[i]
	}
	total := func(name string) float64 {
		var ns int64
		for _, d := range durs[name] {
			ns += d
		}
		return float64(ns) / 1e9
	}
	m["msa.parse_s"] = total("msa.parse")
	m["msa.compress_s"] = total("msa.compress")
	m["mpinet.connect_s"] = total("mpinet.connect")
	if tt := st.transport; tt != nil {
		m["mpinet.send_s"] = float64(tt.sendNS) / 1e9
		m["mpinet.recv_wait_s"] = float64(tt.recvNS) / 1e9
		m["mpinet.frames"] = float64(tt.frames)
		m["mpinet.bytes"] = float64(tt.payloadBytes)
	}

	m["search.run_s"] = total("search.run")
	searchSelf := float64(selfSum["search.run"]+selfSum["search.new"]) / 1e9
	m["search.self_s"] = searchSelf
	var iters []int64
	prev := st.runStart
	for _, e := range st.iterEnds {
		iters = append(iters, e-prev)
		prev = e
	}
	m["search.iter_s"] = float64(percentileNS(iters, 50)) / 1e9
	m["search.iterations"] = float64(rep.Counters[telemetry.CounterIterations.String()])
	m["search.newton_iterations"] = float64(rep.Counters[telemetry.CounterNewtonIters.String()])
	m["search.spr_regrafts"] = float64(rep.Counters[telemetry.CounterSPRRegrafts.String()])
	steps := rep.Counters[telemetry.CounterTraversalSteps.String()]
	skipped := rep.Counters[telemetry.CounterTraversalStepsSkipped.String()]
	m["search.traversal_steps_skipped_share"] = share(skipped, steps+skipped)

	var engineSelf int64
	for name, ns := range selfSum {
		if strings.HasPrefix(name, st.scheme+".") {
			engineSelf += ns
		}
	}
	for _, op := range engineOps {
		p := st.scheme + "." + op
		m[p+".calls"] = float64(len(durs[p]))
		m[p+".s"] = total(p)
		m[p+".p50_us"] = float64(percentileNS(durs[p], 50)) / 1e3
		m[p+".p99_us"] = float64(percentileNS(durs[p], 99)) / 1e3
	}
	m[st.scheme+".self_s"] = float64(engineSelf) / 1e9
	m[st.scheme+".build_s"] = total(st.scheme + ".build")

	r0 := rep.PerRank[0]
	for k := telemetry.KernelClass(0); k < telemetry.NumKernelClasses; k++ {
		n := kernelMetricName(k)
		m[n+"_s"] = float64(r0.KernelNS[k]) / 1e9
		m[n+"_calls"] = float64(r0.KernelOps[k])
	}
	m["likelihood.fastpath_share"] = share(r0.FastPathOps, r0.FastPathOps+r0.GenericOps)
	m["likelihood.pcache_hit_rate"] = share(r0.PCacheHits, r0.PCacheHits+r0.PCacheMisses)
	m["repeats.saved_share"] = share(r0.RepeatColsSaved, r0.RepeatColsComputed+r0.RepeatColsSaved)
	m["enginecore.batch_fusion"] = share(r0.BatchKernels, r0.BatchDispatches)
	m["enginecore.batch_dispatches"] = float64(r0.BatchDispatches)
	if r0.PoolRuns > 0 && r0.PoolThreads > 0 {
		m["threadpool.utilization"] = min(1, share(r0.PoolBlocks, r0.PoolRuns)/float64(r0.PoolThreads))
	}
	for c := mpi.CommClass(0); c < mpi.NumCommClasses; c++ {
		p := "mpi." + c.String()
		m[p+".ops"] = float64(st.meter.Ops[c])
		m[p+".bytes"] = float64(st.meter.Bytes[c])
		if int(c) < len(r0.CollectiveNS) {
			m[p+".s"] = float64(r0.CollectiveNS[c]) / 1e9
		}
	}
	m["mpi.collectives_per_iteration"] = rep.CollectivesPerIteration
	m["mpi.comm_fraction"] = share(r0.CommNS, r0.CommNS+r0.ComputeNS)
	m["mpi.imbalance"] = rep.ImbalanceRatio

	// Rank 0's time in the inference is search self time, engine self
	// time, kernel time and collective time; the rest is unattributed.
	infer := st.wall.Seconds()
	m["trace.infer_s"] = infer
	m["unattributed_s"] = infer - searchSelf - float64(engineSelf)/1e9 -
		float64(r0.ComputeNS)/1e9 - float64(r0.CommNS)/1e9
	if len(durs["infer"]) != 1 {
		return nil, fmt.Errorf("traced run recorded %d inference spans, want 1", len(durs["infer"]))
	}
	return m, nil
}
