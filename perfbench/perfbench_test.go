package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64, op int) []byte{
		"trace":   func(s int64, op int) []byte { return mustJSON(genTrace(s, "op", op)) },
		"session": func(s int64, op int) []byte { return mustJSON(genSessionJobs(s, "op", op)) },
		"grid":    func(s int64, op int) []byte { return mustJSON(genGrid(s, "op", op)) },
	}
	for name, gen := range gens {
		a, b := gen(7, 3), gen(7, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 op 3 generated different bytes twice", name)
		}
		if bytes.Equal(a, gen(8, 3)) {
			t.Errorf("%s: seeds 7 and 8 generated the same op 3", name)
		}
		if bytes.Equal(a, gen(7, 4)) {
			t.Errorf("%s: ops 3 and 4 of seed 7 are identical", name)
		}
		if bytes.Equal(gen(7, -1), gen(7, 1)) {
			t.Errorf("%s: warm-up op -1 repeats timed op 1", name)
		}
		if !bytes.Equal(gen(7, -1), gen(8, -1)) {
			t.Errorf("%s: warm-up op -1 differs between seeds 7 and 8", name)
		}
	}
}

func TestGeneratedInputsMatchTheirWorkloads(t *testing.T) {
	for op := 0; op < 8; op++ {
		spec := genTrace(1, "op", op)
		if len(spec.Jobs) != traceJobs {
			t.Fatalf("trace op %d has %d jobs", op, len(spec.Jobs))
		}
		if hasOutage := spec.Failures != nil; hasOutage != (op%outageEvery == outageEvery-1) {
			t.Errorf("trace op %d: outage window %v", op, hasOutage)
		}
		if _, err := spec.Normalize(); err != nil {
			t.Errorf("trace op %d: %v", op, err)
		}
	}
	patterned := 0
	for _, j := range genTrace(1, "op", 0).Jobs {
		if j.Pattern != "" {
			patterned++
		}
	}
	if patterned < traceJobs/3 || patterned > 2*traceJobs/3 {
		t.Errorf("%d of %d jobs declare a pattern, want about half", patterned, traceJobs)
	}
	jobs := genSessionJobs(1, "op", 0)
	for k := 1; k < len(jobs); k++ {
		if jobs[k].ArrivalSec < jobs[k-1].ArrivalSec || jobs[k].Pattern != "" {
			t.Fatalf("session job %d: arrival %v after %v, pattern %q", k, jobs[k].ArrivalSec, jobs[k-1].ArrivalSec, jobs[k].Pattern)
		}
	}
	points, err := genGrid(1, "op", 0).Expand()
	if err != nil || len(points) != sweepPointsOp {
		t.Fatalf("grid expands to %d points (%v), want %d", len(points), err, sweepPointsOp)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("tail of %d samples reported, want none", tailBeyond)
	}
	for _, n := range []int{11, 37, 100, 1000} {
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = float64(n - k) // descending, so tail must sort
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

func TestCalibration(t *testing.T) {
	initCalibration()
	// The dependent walk must visit every slot before it returns to 0.
	i, steps := uint32(0), 0
	for {
		i = calTable[i]
		steps++
		if i == 0 {
			break
		}
		if steps > len(calTable) {
			t.Fatal("calTable walk does not return to slot 0")
		}
	}
	if steps != len(calTable) {
		t.Errorf("calTable cycle has %d slots, want %d", steps, len(calTable))
	}
	if v := calibrate(); v <= 0 {
		t.Errorf("calibrate() = %v ms, want > 0", v)
	}
	if s := speedScale(nil); s != 1 {
		t.Errorf("speedScale(no samples) = %v, want 1", s)
	}
	if s := speedScale([]float64{2 * calRefMs, calRefMs / 2, 2 * calRefMs}); s != 0.5 {
		t.Errorf("speedScale at half the reference speed = %v, want 0.5", s)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "d", Parent: 2, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("self time of %s = %d, want %d", spans[k].Name, got[k], want[k])
		}
	}
}

// TestWorkloadPremises runs each workload's traced loop briefly and
// checks the premise each one was chosen for.
func TestWorkloadPremises(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			e, err := setup(w, name, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			base := timed(w, e, nil, 0, 200*time.Millisecond, false)
			tr := newTracer()
			p := timed(w, e, tr, base.end, 500*time.Millisecond, false)
			for _, ph := range []*phase{base, p} {
				for i, err := range ph.failed {
					t.Errorf("op %d: %v", i, err)
				}
			}
			if _, bad := w.check(); len(bad) > 0 {
				t.Errorf("outputs of ops %v differ from the in-process reference", bad)
			}
			m := layerMetrics(base, p, tr)
			wantHit := map[string]float64{"trace-cold": 0, "sweep-cold": 0, "serve-hot": 1}
			if want, ok := wantHit[name]; ok && m["serve.cache_hit_ratio"] != want {
				t.Errorf("serve.cache_hit_ratio = %v, want %v", m["serve.cache_hit_ratio"], want)
			}
			placement := name == "trace-cold" || name == "cluster-stream"
			if ev := m["sched.events_per_op"]; (ev > 0) != placement {
				t.Errorf("sched.events_per_op = %v, want it non-zero only on placement workloads", ev)
			}
			if name == "cluster-stream" && p.counts.fsHit+p.counts.fsMiss != 0 {
				t.Errorf("%d flow-set lookups, want none", p.counts.fsHit+p.counts.fsMiss)
			}
			for _, def := range perLayer {
				if _, ok := m[def.name]; !ok {
					t.Errorf("per-layer metric %s not computed", def.name)
				}
			}
		})
	}
}

// TestChecksCatchWrongOutputs tampers with a recorded output of each
// checked workload and expects check to report that op.
func TestChecksCatchWrongOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cold ops")
	}
	for _, name := range []string{"trace-cold", "cluster-stream", "sweep-cold"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			e, err := newEnv("")
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			if err := w.op(e, e.loop, nil, 0, -1); err != nil {
				t.Fatal(err)
			}
			var recorded map[int][]byte
			switch w := w.(type) {
			case *traceCold:
				recorded = w.samples
			case *clusterStream:
				recorded = w.finals
			case *sweepCold:
				recorded = w.samples
			}
			recorded[0] = append(bytes.Clone(recorded[0]), ' ')
			if n, bad := w.check(); n != 1 || len(bad) != 1 || bad[0] != 0 {
				t.Errorf("check after tampering = %d checked, failed %v; want op 0 failed", n, bad)
			}
		})
	}
}

// TestRunFailsBelowTheHeapOpCount: a run too short to reach the op
// count the live heap is read after fails instead of reading the heap
// at another point.
func TestRunFailsBelowTheHeapOpCount(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up trace-cold")
	}
	// One second holds far fewer than heapAfterOps 200-job traces.
	_, err := run(config{workload: "trace-cold", seed: 1, seconds: 1, workdir: t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "live heap") {
		t.Fatalf("run of 1 s: err = %v, want the live-heap op count error", err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloadNames))
	}
	for k, wl := range doc.Workloads {
		if wl.Name != workloadNames[k] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", k, wl.Name, workloadNames[k])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.json), len(c.defs))
		}
		for k, m := range c.json {
			if m.Name != c.defs[k].name || m.Unit != c.defs[k].unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s here", k, m.Name, m.Unit, c.defs[k].name, c.defs[k].unit)
			}
		}
	}
}
