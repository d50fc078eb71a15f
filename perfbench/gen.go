package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"netpart"
	"netpart/internal/faults"
	"netpart/internal/scenario"
	"netpart/internal/scenario/sweep"
	"netpart/internal/sched/cluster"
)

// The benchmark generates every request body itself from the workload
// seed and the op index, never through the program's synthetic trace
// generator, so one seed always yields identical request bytes and a
// change to the generator cannot silently change the inputs.

const (
	benchMachine  = "juqueen"
	traceJobs     = 200
	traceRateHz   = 0.05 // arrivals outpace JUQUEEN's capacity, so jobs queue and backfill
	meanRuntime   = 600.0
	sessionJobs   = 100
	sessionBatch  = 5
	juqueenCells  = 56
	outageEvery   = 4
	sweepPointsOp = 64
)

var jobSizes = []int{1, 2, 4, 8}

// sweepShapes are the torus shapes of a sweep-cold grid, 512 to 1024
// vertices: a fixed list in a fixed order, so per-op cost and the sweep
// pool's sharding do not depend on the seed.
var sweepShapes = []string{
	"16x8x4", "8x8x8", "16x8x8", "8x8x4x4",
	"12x12x4", "12x8x8", "8x8x8x2", "16x4x4x4",
	"4x4x4x4x4", "8x8x4x2", "16x4x4x2", "8x4x4x4",
	"4x4x4x4x2", "16x16x2", "10x8x8", "24x8x4",
}

var sweepPatterns = []string{
	scenario.PatternPairing, scenario.PatternPermutation,
	scenario.PatternNeighbor, scenario.PatternLongestDim,
}

// opRand returns the generator for one op's inputs. Distinct (seed,
// stream, op) triples give independent streams; fill ops use their own
// stream so timed ops never repeat them. Warm-up ops (op < 0) ignore
// the seed: set-up then does the same work for every seed, and setup_s
// compares set-up cost rather than the luck of a seed's first inputs.
func opRand(seed int64, stream string, op int) *rand.Rand {
	if op < 0 {
		seed = 0
	}
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(op)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// round1 keeps generated times to one decimal so request bodies stay
// compact; the value is exactly what the JSON carries.
func round1(v float64) float64 { return math.Round(v*10) / 10 }

// genJobs draws n jobs: Poisson arrivals, sizes uniform over 1/2/4/8
// midplanes, exponential runtimes (at least 30 s). With patterned set,
// half the jobs declare the pairing pattern.
func genJobs(r *rand.Rand, n int, patterned bool) []netpart.TraceJob {
	jobs := make([]netpart.TraceJob, n)
	t := 0.0
	for i := range jobs {
		t += r.ExpFloat64() / traceRateHz
		j := netpart.TraceJob{
			Midplanes:  jobSizes[r.Intn(len(jobSizes))],
			ArrivalSec: round1(t),
			RuntimeSec: round1(30 + r.ExpFloat64()*(meanRuntime-30)),
		}
		if patterned && r.Intn(2) == 0 {
			j.Pattern = scenario.PatternPairing
		}
		jobs[i] = j
	}
	return jobs
}

// genTrace builds the trace-cold spec of one op: 200 inline jobs on
// JUQUEEN under contention-aware placement with backfill. Every fourth
// op's trace carries a two-midplane outage window inside the trace.
func genTrace(seed int64, stream string, op int) netpart.TraceSpec {
	r := opRand(seed, stream, op)
	spec := netpart.TraceSpec{
		Machine:  benchMachine,
		Policy:   scenario.PolicyContentionAware,
		Backfill: true,
		Jobs:     genJobs(r, traceJobs, true),
	}
	if op%outageEvery == outageEvery-1 {
		span := spec.Jobs[len(spec.Jobs)-1].ArrivalSec
		start := round1(r.Float64() * span / 2)
		a := r.Intn(juqueenCells)
		b := (a + 1 + r.Intn(juqueenCells-1)) % juqueenCells
		spec.Failures = &faults.Spec{
			Model:     faults.ModelMidplanes,
			Midplanes: []int{a, b},
			Windows:   []faults.Window{{StartSec: start, EndSec: round1(start + span/4)}},
		}
	}
	return spec
}

// sessionSpec is the cluster-stream session definition.
func sessionSpec() cluster.Spec {
	return cluster.Spec{Machine: benchMachine, Policy: scenario.PolicyBestBisection, Backfill: true}
}

// genSessionJobs draws one cluster-stream op's 100 unpatterned jobs
// with client IDs, in non-decreasing arrival order.
func genSessionJobs(seed int64, stream string, op int) []cluster.SubmitJob {
	r := opRand(seed, stream, op)
	jobs := genJobs(r, sessionJobs, false)
	out := make([]cluster.SubmitJob, len(jobs))
	for i, j := range jobs {
		out[i] = cluster.SubmitJob{
			ID:         fmt.Sprintf("j%03d", i),
			Midplanes:  j.Midplanes,
			ArrivalSec: j.ArrivalSec,
			RuntimeSec: j.RuntimeSec,
		}
	}
	return out
}

// sessionTrace is the batch trace equivalent to a session fed jobs.
func sessionTrace(jobs []cluster.SubmitJob) netpart.TraceSpec {
	s := sessionSpec()
	spec := netpart.TraceSpec{Machine: s.Machine, Policy: s.Policy, Backfill: s.Backfill}
	for _, j := range jobs {
		spec.Jobs = append(spec.Jobs, netpart.TraceJob{Midplanes: j.Midplanes, ArrivalSec: j.ArrivalSec, RuntimeSec: j.RuntimeSec})
	}
	return spec
}

// genGrid builds the sweep-cold grid of one op: the 16 torus shapes ×
// 4 patterns with the flow-level simulation on, and a workload seed
// fresh to this op (which changes every point's identity).
func genGrid(seed int64, stream string, op int) netpart.SweepGrid {
	r := opRand(seed, stream, op)
	return netpart.SweepGrid{
		Name: "perfbench",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.KindTorus, Shape: sweepShapes[0]},
			Workload: scenario.WorkloadSpec{Pattern: scenario.PatternPairing, Seed: 1 + r.Int63n(1<<40)},
			Sim:      scenario.SimSpec{Enabled: true},
		},
		Axes: []sweep.Axis{
			{Path: "topology.shape", Values: sweep.Strings(sweepShapes...)},
			{Path: "workload.pattern", Values: sweep.Strings(sweepPatterns...)},
		},
	}
}

// mustJSON encodes a generated body; generated values always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode generated input: %v", err))
	}
	return b
}
