package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"netpart"
	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/scenario"
	"netpart/internal/scenario/sweep"
	"netpart/internal/sched"
	"netpart/internal/sched/cluster"
	"netpart/internal/sched/tracesim"
	"netpart/internal/torus"
	traffic "netpart/internal/workload"
)

// workload is one named traffic mix. Ops are numbered from 0 in the
// timed region; warm-up ops use negative numbers, so timed inputs are
// never repeats of warm-up inputs.
type workload interface {
	// fill prepares server state that ops read (serve-hot only).
	fill(e *env) error
	// op runs op i through t, spans under parent when tr is non-nil.
	op(e *env, t *target, tr *tracer, i, parent int) error
	// check verifies the recorded outputs of the loopback ops outside
	// the timed region and returns the ops whose outputs were wrong.
	check() (checked int, failed []int)
	// layers replays op i's inputs in-process: through ServeHTTP and
	// through each layer's public functions, under spans.
	layers(e *env, tr *tracer, i, parent int) error
}

var workloadNames = []string{"trace-cold", "cluster-stream", "sweep-cold", "serve-hot"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "trace-cold":
		return &traceCold{seed: seed, samples: map[int][]byte{}}, nil
	case "cluster-stream":
		return &clusterStream{seed: seed, finals: map[int][]byte{}}, nil
	case "sweep-cold":
		return &sweepCold{seed: seed, samples: map[int][]byte{}}, nil
	case "serve-hot":
		return &serveHot{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// sampleEvery is the stride of the fixed sample of cold results that
// are recomputed in-process and byte-compared after the timed region.
const sampleEvery = 8

// jobOp is the asynchronous-job op shape shared by traces and sweeps:
// POST the definition, follow the SSE stream to done, GET the result
// in the accepted encoding.
func jobOp(t *target, tr *tracer, i, parent int, kind string, body []byte, accept string) (jobDoc, []byte, error) {
	var doc jobDoc
	err := tr.timed(t.prefix+".submit", i, parent, func() error {
		r, err := t.expect(http.StatusAccepted, http.MethodPost, "/v1/"+kind, body)
		if err != nil {
			return err
		}
		doc, err = parseJobDoc(r.body)
		return err
	})
	if err != nil {
		return doc, nil, err
	}
	id := doc.ID
	err = tr.timed(t.prefix+".wait", i, parent, func() error {
		status, err := t.follow("/v1/" + kind + "/" + id + "/events")
		if err == nil && status != "done" {
			err = fmt.Errorf("%s %s ended %s", kind, id, status)
		}
		return err
	})
	if err != nil {
		return doc, nil, err
	}
	var res reply
	err = tr.timed(t.prefix+".result", i, parent, func() error {
		res, err = t.expect(http.StatusOK, http.MethodGet, "/v1/"+kind+"/"+id, nil, "Accept", accept)
		return err
	})
	return doc, res.body, err
}

// schedReplay times sched.RunContext on an op's jobs with the built-in
// duration model: placement and backfill without contention scoring.
func schedReplay(tr *tracer, i, parent int, policy string, jobs []netpart.TraceJob) error {
	m, err := scenario.ResolveMachine(benchMachine)
	if err != nil {
		return err
	}
	pol, ok := sched.PolicyByName(policy)
	if !ok {
		return fmt.Errorf("no policy %q", policy)
	}
	sj := make([]sched.Job, len(jobs))
	for k, j := range jobs {
		sj[k] = sched.Job{ID: k, Midplanes: j.Midplanes, ArrivalSec: j.ArrivalSec, BaseDurationSec: j.RuntimeSec, ContentionBound: j.Pattern != ""}
	}
	ev0 := sched.StepperEventsProcessed()
	err = tr.timed("sched.replay", i, parent, func() error {
		_, err := sched.RunContext(context.Background(), m, pol, sj, sched.Options{Backfill: true})
		return err
	})
	tr.note("sched.replay_events", float64(sched.StepperEventsProcessed()-ev0))
	return err
}

// encodeResult times the three result encoders on r.
func encodeResult(tr *tracer, i, parent int, r *netpart.Result) error {
	return tr.timed("result.encode", i, parent, func() error {
		if _, err := r.JSON(); err != nil {
			return err
		}
		if _, err := r.CSV(); err != nil {
			return err
		}
		r.Markdown()
		return nil
	})
}

// --- trace-cold ---

type traceCold struct {
	seed    int64
	last    string         // job ID of the latest loopback op
	samples map[int][]byte // op → served JSON, for the sampled ops
}

func (w *traceCold) fill(*env) error { return nil }

func (w *traceCold) op(e *env, t *target, tr *tracer, i, parent int) error {
	doc, body, err := jobOp(t, tr, i, parent, "traces", mustJSON(genTrace(w.seed, "op", i)), "application/json")
	if err != nil {
		return err
	}
	if t == e.loop {
		w.last = doc.ID
		if i >= 0 && i%sampleEvery == 0 {
			w.samples[i] = body
		}
	}
	return nil
}

func (w *traceCold) check() (int, []int) {
	runner := netpart.NewRunner(netpart.WithWorkers(workers))
	var failed []int
	for _, i := range sortedKeys(w.samples) {
		res, err := runner.RunTrace(context.Background(), genTrace(w.seed, "op", i), nil)
		var want []byte
		if err == nil {
			want, err = res.JSON()
		}
		if err != nil || !bytes.Equal(want, w.samples[i]) {
			failed = append(failed, i)
		}
	}
	n := len(w.samples)
	clear(w.samples)
	return n, failed
}

func (w *traceCold) layers(e *env, tr *tracer, i, parent int) error {
	// The healthy twin of an outage trace is memoized process-wide, so
	// an in-process replay would skip work the loopback op did: outage
	// ops get no ServeHTTP replay.
	if i%outageEvery != outageEvery-1 {
		// Evict the loopback op's result so the in-process replay
		// recomputes it instead of hitting the cache.
		if _, err := e.inproc.expect(http.StatusAccepted, http.MethodDelete, "/v1/traces/"+w.last, nil); err != nil {
			return err
		}
		root := tr.begin("op.serve", i, parent)
		err := w.op(e, e.inproc, tr, i, root)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	spec := genTrace(w.seed, "op", i)
	var out *tracesim.Result
	err := tr.timed("tracesim.run", i, parent, func() error {
		var err error
		out, err = tracesim.Run(context.Background(), spec, tracesim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	norm := out.Spec
	res := &netpart.Result{
		Experiment: netpart.Experiment{ID: norm.ID(), Title: norm.Title(), Kind: netpart.KindTable, Cost: netpart.Cost(norm.Cost())},
		Table:      out.Table(),
		Data:       out,
	}
	if err := encodeResult(tr, i, parent, res); err != nil {
		return err
	}
	return schedReplay(tr, i, parent, spec.Policy, spec.Jobs)
}

// --- cluster-stream ---

type clusterStream struct {
	seed   int64
	finals map[int][]byte // op → DELETE metrics, compact JSON
}

func (w *clusterStream) fill(*env) error { return nil }

func (w *clusterStream) op(e *env, t *target, tr *tracer, i, parent int) error {
	jobs := genSessionJobs(w.seed, "op", i)
	var id string
	err := tr.timed(t.prefix+".submit", i, parent, func() error {
		r, err := t.expect(http.StatusCreated, http.MethodPost, "/v1/cluster", mustJSON(sessionSpec()))
		if err != nil {
			return err
		}
		doc, err := parseJobDoc(r.body)
		id = doc.ID
		return err
	})
	if err != nil {
		return err
	}
	path := "/v1/cluster/" + id
	for b := 0; b < len(jobs); b += sessionBatch {
		batch := mustJSON(struct {
			Jobs []cluster.SubmitJob `json:"jobs"`
		}{jobs[b : b+sessionBatch]})
		err := tr.timed(t.prefix+".submit", i, parent, func() error {
			r, err := t.expect(http.StatusOK, http.MethodPost, path+"/jobs", batch)
			if err != nil {
				return err
			}
			var rec cluster.Receipt
			if err := json.Unmarshal(r.body, &rec); err != nil || rec.Accepted != sessionBatch || rec.Duplicates != 0 {
				return fmt.Errorf("%s/jobs: receipt %s", path, r.body)
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = tr.timed(t.prefix+".snapshot", i, parent, func() error {
			_, err := t.expect(http.StatusOK, http.MethodGet, path, nil)
			return err
		})
		if err != nil {
			return err
		}
	}
	var final reply
	err = tr.timed(t.prefix+".result", i, parent, func() error {
		final, err = t.expect(http.StatusOK, http.MethodDelete, path, nil)
		return err
	})
	if err != nil {
		return err
	}
	if t == e.loop && i >= 0 {
		var doc struct {
			Metrics json.RawMessage `json:"metrics"`
		}
		var buf bytes.Buffer
		if err := json.Unmarshal(final.body, &doc); err != nil {
			return fmt.Errorf("DELETE %s: %w", path, err)
		}
		if err := json.Compact(&buf, doc.Metrics); err != nil {
			return fmt.Errorf("DELETE %s: %w", path, err)
		}
		w.finals[i] = buf.Bytes()
	}
	return nil
}

// check holds every drained session to the batch simulation of the
// same jobs: a session fed a trace in arrival order must finish with
// the metrics RunTrace computes for it.
func (w *clusterStream) check() (int, []int) {
	runner := netpart.NewRunner(netpart.WithWorkers(1))
	var failed []int
	for _, i := range sortedKeys(w.finals) {
		res, err := runner.RunTrace(context.Background(), sessionTrace(genSessionJobs(w.seed, "op", i)), nil)
		var want []byte
		if err == nil {
			want, err = json.Marshal(res.Data.(*tracesim.Result).Metrics)
		}
		if err != nil || !bytes.Equal(want, w.finals[i]) {
			failed = append(failed, i)
		}
	}
	n := len(w.finals)
	clear(w.finals)
	return n, failed
}

func (w *clusterStream) layers(e *env, tr *tracer, i, parent int) error {
	root := tr.begin("op.serve", i, parent)
	err := w.op(e, e.inproc, tr, i, root)
	tr.end(root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	jobs := genSessionJobs(w.seed, "op", i)
	sess, err := cluster.Open(sessionSpec(), cluster.SessionOptions{})
	if err != nil {
		return err
	}
	defer sess.Abort() // no-op once Close has drained it
	for b := 0; b < len(jobs); b += sessionBatch {
		err := tr.timed("cluster.submit", i, parent, func() error {
			_, err := sess.Submit(ctx, jobs[b:b+sessionBatch])
			return err
		})
		if err != nil {
			return err
		}
		if _, err := sess.Snapshot(ctx); err != nil {
			return err
		}
	}
	if err := tr.timed("cluster.close", i, parent, func() error { _, err := sess.Close(ctx); return err }); err != nil {
		return err
	}
	return schedReplay(tr, i, parent, sessionSpec().Policy, sessionTrace(jobs).Jobs)
}

// --- sweep-cold ---

type sweepCold struct {
	seed    int64
	last    string
	samples map[int][]byte // op → served CSV, for the sampled ops
}

func (w *sweepCold) fill(*env) error { return nil }

func (w *sweepCold) op(e *env, t *target, tr *tracer, i, parent int) error {
	doc, body, err := jobOp(t, tr, i, parent, "sweeps", mustJSON(genGrid(w.seed, "op", i)), "text/csv")
	if err != nil {
		return err
	}
	if err := sweepCSVClean(body); err != nil {
		return fmt.Errorf("sweep %s: %w", doc.ID, err)
	}
	if t == e.loop {
		w.last = doc.ID
		if i >= 0 && i%sampleEvery == 0 {
			w.samples[i] = body
		}
	}
	return nil
}

// sweepCSVClean checks a sweep CSV has every point and no failed one.
func sweepCSVClean(body []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return err
	}
	if len(rows) != sweepPointsOp+1 {
		return fmt.Errorf("%d rows, want %d points", len(rows)-1, sweepPointsOp)
	}
	col := -1
	for k, h := range rows[0] {
		if h == "error" {
			col = k
		}
	}
	if col < 0 {
		return fmt.Errorf("no error column in %v", rows[0])
	}
	failed := 0
	for _, row := range rows[1:] {
		if row[col] != "" {
			failed++
		}
	}
	if failed != 0 {
		return fmt.Errorf("failed == %d, want 0", failed)
	}
	return nil
}

func (w *sweepCold) check() (int, []int) {
	runner := netpart.NewRunner(netpart.WithWorkers(workers))
	var failed []int
	for _, i := range sortedKeys(w.samples) {
		res, err := runner.RunSweep(context.Background(), genGrid(w.seed, "op", i), nil)
		var want []byte
		if err == nil {
			want, err = res.CSV()
		}
		if err != nil || !bytes.Equal(want, w.samples[i]) {
			failed = append(failed, i)
		}
	}
	n := len(w.samples)
	clear(w.samples)
	return n, failed
}

func (w *sweepCold) layers(e *env, tr *tracer, i, parent int) error {
	if _, err := e.inproc.expect(http.StatusAccepted, http.MethodDelete, "/v1/sweeps/"+w.last, nil); err != nil {
		return err
	}
	root := tr.begin("op.serve", i, parent)
	err := w.op(e, e.inproc, tr, i, root)
	tr.end(root)
	if err != nil {
		return err
	}
	ctx := context.Background()
	grid := genGrid(w.seed, "op", i)
	var points []sweep.Point
	err = tr.timed("sweep.expand", i, parent, func() error {
		points, err = grid.Expand()
		return err
	})
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var busy time.Duration
	opts := sweep.Options{Workers: workers, RunPoint: func(ctx context.Context, spec scenario.Spec) (*scenario.Outcome, error) {
		t0 := time.Now()
		out, err := scenario.Run(ctx, spec)
		mu.Lock()
		busy += time.Since(t0)
		mu.Unlock()
		return out, err
	}}
	var sres *sweep.Result
	t0 := time.Now()
	err = tr.timed("sweep.run", i, parent, func() error {
		sres, err = sweep.RunPoints(ctx, grid, points, opts)
		return err
	})
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	if sres.Failed != 0 {
		return fmt.Errorf("in-process sweep: %d points failed", sres.Failed)
	}
	tr.note("sweep.pool_efficiency", ratio(float64(busy), float64(wall)*workers))
	res := &netpart.Result{
		Experiment: netpart.Experiment{ID: sweep.ID(grid.Name, points), Title: grid.Title(), Kind: netpart.KindTable, Cost: netpart.Cost(sweep.Cost(points))},
		Table:      sres.Table(grid.Title()),
		Data:       sres,
	}
	if err := encodeResult(tr, i, parent, res); err != nil {
		return err
	}
	flows := 0
	for _, p := range points {
		off := p.Spec
		off.Sim = scenario.SimSpec{}
		for _, run := range []struct {
			name string
			spec scenario.Spec
		}{{"scenario.run", p.Spec}, {"scenario.nosim", off}} {
			if err := tr.timed(run.name, i, parent, func() error { _, err := scenario.Run(ctx, run.spec); return err }); err != nil {
				return err
			}
		}
		n, err := netsimReplay(tr, i, parent, p.Spec)
		if err != nil {
			return err
		}
		flows += n
	}
	tr.note("netsim.flows", float64(flows))
	return nil
}

// netsimReplay rebuilds a torus point's flows with route.Router.Route
// and the workload generators, and times the flow-level simulation
// alone. It returns the flows completed.
func netsimReplay(tr *tracer, i, parent int, spec scenario.Spec) (int, error) {
	shape, err := torus.ParseShape(spec.Topology.Shape)
	if err != nil {
		return 0, err
	}
	tor, err := torus.New(shape...)
	if err != nil {
		return 0, err
	}
	r := route.NewRouter(tor)
	bytesPer := spec.Workload.Bytes
	var demands []route.Demand
	switch spec.Workload.Pattern {
	case scenario.PatternPairing:
		demands, err = traffic.BisectionPairing(r, bytesPer)
	case scenario.PatternPermutation:
		demands, err = traffic.RandomPermutation(tor, bytesPer, rand.New(rand.NewSource(spec.Workload.Seed)))
	case scenario.PatternNeighbor:
		demands, err = traffic.NearestNeighbor(tor, bytesPer)
	case scenario.PatternLongestDim:
		demands, err = traffic.LongestDimShift(tor, bytesPer)
	default:
		err = fmt.Errorf("no netsim replay for pattern %q", spec.Workload.Pattern)
	}
	if err != nil {
		return 0, err
	}
	sim := netsim.New(r.NumLinks(), model.LinkBytesPerSec)
	for _, d := range demands {
		if links := r.Route(d.Src, d.Dst, nil); len(links) > 0 {
			sim.StartFlow(links, d.Bytes, 0)
		}
	}
	tr.timed("netsim.run", i, parent, func() error { sim.RunUntilIdle(); return nil }) //nolint:errcheck // never fails
	return sim.Stats().FlowsCompleted, nil
}
