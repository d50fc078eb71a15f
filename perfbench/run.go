package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netpart/internal/obs"
	"netpart/internal/sched"
	"netpart/internal/sched/cluster"
)

const (
	// setupRounds: set-up runs this many times and setup_s is the
	// median, so one slow start does not decide the metric.
	setupRounds = 9
	// warmupOps run after each set-up, before any timing.
	warmupOps = 3
	// heapAfterOps is the op count after which the live heap is read.
	// The op count of a timed run varies with the host's CPU steal,
	// and the server's retained state grows with it, so the heap is
	// read after the same number of ops in every run. A run with fewer
	// ops fails.
	heapAfterOps = 32
)

// setup builds a server, fills it and runs the warm-up ops. Warm-up
// inputs do not depend on the seed (see opRand), so every seed sets up
// the same way.
func setup(w workload, name, workdir string) (*env, error) {
	storeIn := ""
	if name == "serve-hot" {
		storeIn = workdir
	}
	e, err := newEnv(storeIn)
	if err != nil {
		return nil, err
	}
	if err := w.fill(e); err != nil {
		e.close()
		return nil, fmt.Errorf("fill: %w", err)
	}
	for k := 1; k <= warmupOps; k++ {
		if err := w.op(e, e.loop, nil, -k, -1); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return e, nil
}

// costs is a reading of the process's cumulative costs.
type costs struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCPU, usedCPU float64
	gcCycles       uint64
	ticks          cpuTicks
	at             time.Time
}

// skip moves c forward by the costs between readings a and b, so that
// totals measured from c leave out what happened between them.
func (c *costs) skip(a, b costs) {
	c.cpu += b.cpu - a.cpu
	c.mallocs += b.mallocs - a.mallocs
	c.bytes += b.bytes - a.bytes
	c.gcCPU += b.gcCPU - a.gcCPU
	c.usedCPU += b.usedCPU - a.usedCPU
	c.gcCycles += b.gcCycles - a.gcCycles
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCosts() costs {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return costs{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		usedCPU:  s[1].Value.Float64() - s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
		ticks:    readTicks(),
		at:       time.Now(),
	}
}

// cpuTicks is the machine's cumulative busy and stolen CPU time, in
// clock ticks, from the first line of /proc/stat (zero where that is
// unavailable).
type cpuTicks struct{ busy, steal uint64 }

func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]uint64, 8) // user nice system idle iowait irq softirq steal
	for k := range v {
		v[k], _ = strconv.ParseUint(f[k+1], 10, 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenShare is the share of the CPU time wanted between two readings
// that the hypervisor gave to other guests instead: stolen ÷ (busy +
// stolen). An idle vCPU is not stolen from, so this is the share by
// which a runnable thread was slowed.
func stolenShare(a, b cpuTicks) float64 {
	steal := float64(b.steal - a.steal)
	return ratio(steal, steal+float64(b.busy-a.busy))
}

// counts are the program's own counters, read around each loopback op
// of the traced phase.
type counts struct {
	events, memoHit, memoMiss, fsHit, fsMiss, planHit, planMiss uint64
	cacheHit, cacheMiss, admCount, admSum                       float64
}

func readCounts(reg *obs.Registry) counts {
	var c counts
	c.events = sched.StepperEventsProcessed()
	c.memoHit, c.memoMiss = cluster.MemoCounts()
	c.fsHit, c.fsMiss, _ = cluster.FlowSetCounts()
	c.planHit, c.planMiss, _ = sched.PlanCacheCounts()
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			switch f.Name {
			case "netpart_cache_hits_total":
				c.cacheHit += s.Value
			case "netpart_cache_misses_total":
				c.cacheMiss += s.Value
			case "netpart_admission_wait_seconds":
				c.admCount += float64(s.Count)
				c.admSum += s.Sum
			}
		}
	}
	return c
}

func (c counts) sub(o counts) counts {
	return counts{
		c.events - o.events, c.memoHit - o.memoHit, c.memoMiss - o.memoMiss,
		c.fsHit - o.fsHit, c.fsMiss - o.fsMiss, c.planHit - o.planHit, c.planMiss - o.planMiss,
		c.cacheHit - o.cacheHit, c.cacheMiss - o.cacheMiss, c.admCount - o.admCount, c.admSum - o.admSum,
	}
}

func (c counts) add(o counts) counts {
	return counts{
		c.events + o.events, c.memoHit + o.memoHit, c.memoMiss + o.memoMiss,
		c.fsHit + o.fsHit, c.fsMiss + o.fsMiss, c.planHit + o.planHit, c.planMiss + o.planMiss,
		c.cacheHit + o.cacheHit, c.cacheMiss + o.cacheMiss, c.admCount + o.admCount, c.admSum + o.admSum,
	}
}

// phase is one timed region's record.
type phase struct {
	lat        []float64 // per-op wall latency, ms
	cal        []float64 // calibration samples, ms (untraced phases)
	first, end int       // op indices [first, end)
	liveHeap   uint64    // bytes live after heapAfterOps ops, when asked for
	failed     map[int]error
	before     costs
	after      costs
	counts     counts // traced phase only: summed over the loopback ops
}

func (p *phase) ops() int { return p.end - p.first }

// timed runs closed-loop ops for d (at least one op). With tr non-nil
// every loopback op is spanned and followed by its in-process layer
// replays, and the program's counters are read around the op. With
// readHeap set the live heap is read after heapAfterOps ops, and the
// forced collections that reading takes are left out of the costs.
func timed(w workload, e *env, tr *tracer, first int, d time.Duration, readHeap bool) *phase {
	p := &phase{first: first, failed: map[int]error{}}
	runtime.GC()
	p.before = readCosts()
	deadline := p.before.at.Add(d)
	lastCal := p.before.at
	i := first
	for ; i == first || time.Now().Before(deadline); i++ {
		var c0 counts
		if tr != nil {
			c0 = readCounts(e.srv.Metrics())
		}
		t0 := time.Now()
		root := tr.begin("op.http", i, -1)
		err := w.op(e, e.loop, tr, i, root)
		tr.end(root)
		p.lat = append(p.lat, ms(time.Since(t0)))
		if readHeap && len(p.lat) == heapAfterOps {
			c0 := readCosts()
			p.liveHeap = liveHeap()
			p.before.skip(c0, readCosts())
		}
		if tr == nil && time.Since(lastCal) >= calEvery {
			c0 := readCosts()
			p.cal = append(p.cal, calibrate())
			p.before.skip(c0, readCosts())
			lastCal = time.Now()
		}
		if err != nil {
			p.failed[i] = err
			continue
		}
		if tr != nil {
			delta := readCounts(e.srv.Metrics()).sub(c0)
			p.counts = p.counts.add(delta)
			tr.note("sched.events", float64(delta.events))
			if err := w.layers(e, tr, i, -1); err != nil {
				p.failed[i] = fmt.Errorf("traced replay: %w", err)
			}
		}
	}
	p.end = i
	p.after = readCosts()
	return p
}

// liveHeap forces a GC and returns the heap bytes still live. The
// second cycle frees what the first left in sync.Pool victim caches,
// which otherwise decide the figure on a small heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run sets up, measures and checks one workload and returns the
// summary. Progress and notes go to out.
func run(cfg config, out io.Writer) (*summary, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	initCalibration()
	// setupS[0] has the host's steal scaled out, setupS[1] is raw;
	// setupCal holds the calibration samples taken between rounds.
	var setupS [2][]float64
	var setupCal []float64
	var e *env
	for range setupRounds {
		if e != nil {
			e.close()
		}
		t0, ticks := time.Now(), readTicks()
		if e, err = setup(w, cfg.workload, cfg.workdir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupS[0] = append(setupS[0], raw*(1-stolenShare(ticks, readTicks())))
		setupS[1] = append(setupS[1], raw)
		for range calPerSetup {
			setupCal = append(setupCal, calibrate())
		}
	}
	defer e.close()

	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		d /= 2 // half untraced, half traced
	}
	base := timed(w, e, nil, 0, d, !cfg.trace)
	if !cfg.trace && base.ops() < heapAfterOps {
		return nil, fmt.Errorf("only %d ops in %v, fewer than the %d after which the live heap is read: raise --seconds", base.ops(), d, heapAfterOps)
	}
	phases := []*phase{base}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		phases = append(phases, timed(w, e, tr, base.end, d, false))
	}

	checked, bad := w.check()
	failed := map[int]error{}
	attempted := 0
	for _, p := range phases {
		attempted += p.ops()
		for i, err := range p.failed {
			failed[i] = err
		}
	}
	for _, i := range bad {
		failed[i] = fmt.Errorf("output differs from the in-process reference")
	}
	for _, i := range sortedKeys(failed) {
		fmt.Fprintf(out, "failed op %d: %v\n", i, failed[i])
	}
	fmt.Fprintf(out, "workload %s seed %d: %d ops attempted, %d failed, %d outputs recomputed and compared\n",
		cfg.workload, cfg.seed, attempted, len(failed), checked)

	var m map[string]float64
	if cfg.trace {
		m = layerMetrics(base, phases[1], tr)
		if err := tr.write(spanPath(cfg)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spanPath(cfg))
	} else {
		m = endToEndMetrics(base, setupS, setupCal, out)
	}
	sum := &summary{Correct: len(failed) == 0, Attempted: attempted, Failed: len(failed), Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", def.name)
		}
		sum.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(out, "%-30s %14.6g %s\n", def.name, v, def.unit)
	}
	return sum, nil
}

// endToEndMetrics reduces the untraced phase. Every time is brought
// to the reference speed by the run's calibration samples (setupCal for
// setup_s, the timed region's own for the rest), and wall times also
// have the host's steal scaled out (see README.md); setupS holds the
// steal-scaled and the raw set-up times. The unscaled times are printed
// as "unscaled <metric> <value>" lines, which the steadiness mode reads.
func endToEndMetrics(p *phase, setupS [2][]float64, setupCal []float64, out io.Writer) map[string]float64 {
	n := float64(p.ops())
	kept := 1 - stolenShare(p.before.ticks, p.after.ticks)
	speed := speedScale(p.cal)
	cpu := ms(p.after.cpu-p.before.cpu) / n
	m := map[string]float64{
		"setup_s":         median(setupS[0]) * speedScale(setupCal),
		"op_p50_ms":       median(p.lat) * kept * speed,
		"cpu_ms_per_op":   cpu * speed,
		"allocs_per_op":   float64(p.after.mallocs-p.before.mallocs) / n,
		"alloc_mb_per_op": float64(p.after.bytes-p.before.bytes) / n / (1 << 20),
	}
	v, pct, _ := tail(p.lat) // run has checked there are heapAfterOps > tailBeyond samples
	m["op_tail_ms"] = v * kept * speed
	fmt.Fprintf(out, "op_tail_ms is p%.2f of %d samples (%d beyond it)\n", pct, len(p.lat), tailBeyond)
	fmt.Fprintf(out, "host steal took %.1f%% of the wanted CPU time in the timed region\n", 100*(1-kept))
	fmt.Fprintf(out, "calibration loop: median %.4f ms of %d samples at set-up, %.4f ms of %d in the timed region (reference %.1f ms)\n",
		median(setupCal), len(setupCal), median(p.cal), len(p.cal), calRefMs)
	fmt.Fprintf(out, "unscaled setup_s %v\nunscaled op_p50_ms %v\nunscaled op_tail_ms %v\nunscaled cpu_ms_per_op %v\n", median(setupS[1]), median(p.lat), v, cpu)
	m["live_heap_mb"] = float64(p.liveHeap) / (1 << 20)
	return m
}

// layerMetrics reduces the traced run: base is its untraced phase,
// p the traced one.
func layerMetrics(base, p *phase, tr *tracer) map[string]float64 {
	c := p.counts
	n := float64(p.ops())
	m := map[string]float64{
		"trace.overhead_ms":             median(tr.perCall("op.http")) - median(base.lat),
		"serve.submit_ms":               median(tr.perOp("serve.submit")),
		"serve.wait_ms":                 median(tr.perOp("http.wait")),
		"serve.result_ms":               median(tr.perOp("serve.result")),
		"serve.admission_wait_ms":       1000 * ratio(c.admSum, c.admCount),
		"serve.cache_hit_ratio":         ratio(c.cacheHit, c.cacheHit+c.cacheMiss),
		"store.get_us":                  1000 * median(tr.perCall("store.get")),
		"result.encode_ms":              median(tr.perOp("result.encode")),
		"tracesim.run_ms":               median(tr.perOp("tracesim.run")),
		"cluster.submit_ms":             median(tr.perOp("cluster.submit")),
		"cluster.close_ms":              median(tr.perOp("cluster.close")),
		"cluster.memo_hit_ratio":        ratio(float64(c.memoHit), float64(c.memoHit+c.memoMiss)),
		"cluster.flowset_misses_per_op": float64(c.fsMiss) / n,
		"sched.replay_ms":               median(tr.perOp("sched.replay")),
		"sched.events_per_op":           float64(c.events) / n,
		"sched.place_us":                1000 * ratio(sum(tr.perCall("sched.replay")), sum(tr.values["sched.replay_events"])),
		"sched.plan_hit_ratio":          ratio(float64(c.planHit), float64(c.planHit+c.planMiss)),
		"scenario.run_ms":               median(tr.perCall("scenario.run")),
		"scenario.sim_ms":               median(diffs(tr.perCall("scenario.run"), tr.perCall("scenario.nosim"))),
		"sweep.expand_ms":               median(tr.perOp("sweep.expand")),
		"sweep.pool_efficiency":         median(tr.values["sweep.pool_efficiency"]),
		"netsim.run_ms":                 median(tr.perOp("netsim.run")),
		"netsim.flows_per_op":           median(tr.values["netsim.flows"]),
		"gc.cpu_share":                  ratio(base.after.gcCPU-base.before.gcCPU, base.after.usedCPU-base.before.usedCPU),
		"gc.cycles_per_op":              float64(base.after.gcCycles-base.before.gcCycles) / float64(base.ops()),
	}
	// The paired loopback-minus-in-process difference, over the ops
	// that have an in-process replay.
	loop, inproc := map[int]float64{}, map[int]float64{}
	for _, s := range tr.spans {
		switch s.Name {
		case "op.http":
			loop[s.Op] = ms(s.dur())
		case "op.serve":
			inproc[s.Op] = ms(s.dur())
		}
	}
	var over []float64
	for op, v := range inproc {
		over = append(over, loop[op]-v)
	}
	m["http.overhead_ms"] = median(over)
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// diffs returns a[k]-b[k] over the common prefix.
func diffs(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for k := range out {
		out[k] = a[k] - b[k]
	}
	return out
}
