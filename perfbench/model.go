package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/machine"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// modelSizes are the payloads the model workload prices: per-rank
// message for the broadcasts, per-rank block for the allgathers.
var modelSizes = []int64{64 << 10, 1 << 20}

// Schedule classes of the model workload, in the order they are compiled.
var modelClasses = []string{"bcast_tree", "allgather_ring", "allgather_tuned", "bcast_repair"}

// simCase is one schedule the model workload prices, with the makespan
// its first simulation produced, which every later run must reproduce.
type simCase struct {
	class string
	size  int64
	bind  *binding.Binding
	s     *sched.Schedule
	want  float64
}

// compileModel compiles the model workload's schedule set on IG with 48
// cross-socket ranks: the distance-aware broadcast tree and allgather
// ring, the tuned-baseline allgather, and a 47-survivor broadcast repair
// like the one the runtime prices before choosing repair over restart.
// The broadcast root, the dead rank and what each survivor already holds
// come from the seed.
func compileModel(seed uint64) ([]simCase, error) {
	rng := rand.New(rand.NewPCG(seed, 0x30de1))
	ig, bind, err := crossSocket()
	if err != nil {
		return nil, err
	}
	m := distance.NewMatrix(ig, bind.Cores())
	root := rng.IntN(ranks)
	dead := (root + 1 + rng.IntN(ranks-1)) % ranks
	tree, err := core.BuildBroadcastTree(m, root, core.TreeOptions{})
	if err != nil {
		return nil, err
	}
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		return nil, err
	}
	var alive, aliveCores []int
	for r := 0; r < ranks; r++ {
		if r != dead {
			alive = append(alive, r)
			aliveCores = append(aliveCores, bind.CoreOf(r))
		}
	}
	m47, err := core.RestrictMatrix(m, alive)
	if err != nil {
		return nil, err
	}
	bind47, err := binding.New(ig, "recovery", aliveCores)
	if err != nil {
		return nil, err
	}
	var cases []simCase
	add := func(class string, size int64, b *binding.Binding, s *sched.Schedule, err error) error {
		if err != nil {
			return fmt.Errorf("%s %d B: %w", class, size, err)
		}
		cases = append(cases, simCase{class: class, size: size, bind: b, s: s})
		return nil
	}
	for _, size := range modelSizes {
		s, err := core.CompileBroadcast(tree, size, 0)
		if err := add("bcast_tree", size, bind, s, err); err != nil {
			return nil, err
		}
		s, err = core.CompileAllgather(ring, size)
		if err := add("allgather_ring", size, bind, s, err); err != nil {
			return nil, err
		}
		alg := baseline.TunedAllgatherDecision(ranks, size)
		s, err = baseline.CompileAllgather(alg, ranks, size, baseline.SMKnemBTL())
		if err := add("allgather_tuned", size, bind, s, err); err != nil {
			return nil, err
		}
		s, err = core.CompileBcastRepair(m47, size, 0, repairHolds(rng, alive, root, size))
		if err := add("bcast_repair", size, bind47, s, err); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// repairHolds models a broadcast interrupted by a crash: each survivor
// holds a seeded prefix of the chunk grid, and the root holds everything.
func repairHolds(rng *rand.Rand, alive []int, root int, size int64) []*recovery.IntervalSet {
	chunks := sched.Chunks(size, core.BroadcastChunk(size, 2))
	holds := make([]*recovery.IntervalSet, len(alive))
	for i, r := range alive {
		held := len(chunks)
		if r != root {
			held = rng.IntN(len(chunks) + 1)
		}
		var spans []recovery.Interval
		if held > 0 {
			spans = []recovery.Interval{{Off: 0, Len: chunks[held-1][0] + chunks[held-1][1]}}
		}
		holds[i] = recovery.NewSet(spans)
	}
	return holds
}

// simRounding is the relative difference, as a share of the makespan,
// by which times within one simulation may disagree: start and finish
// times reach the result through different floating-point sums.
const simRounding = 1e-9

// simAgreement is the relative difference by which a simulation's
// makespan may differ from the reference run of the same schedule. The
// simulator is not deterministic: it visits flows in an order that can
// change between runs, which moves the makespan by rounding in most runs
// and, rarely, by a few parts per million (a tie resolved the other way).
// Any difference at all is counted in des.inexact_ratio, so the defect
// stays visible; a difference beyond this bound fails the op.
const simAgreement = 1e-3

// simCheck is the model oracle. It returns "" when the result is causally
// consistent with the schedule (no op starts before its dependencies
// finish, the makespan is the last finish) and, once a reference exists,
// agrees with its makespan; otherwise it describes the first problem.
// exact reports a makespan bit-identical to the reference.
func simCheck(c *simCase, res *des.Result) (problem string, exact bool) {
	if len(res.OpStart) != len(c.s.Ops) || len(res.OpFinish) != len(c.s.Ops) {
		return fmt.Sprintf("%d start and %d finish times for %d ops", len(res.OpStart), len(res.OpFinish), len(c.s.Ops)), false
	}
	if !(res.Makespan > 0) {
		return fmt.Sprintf("makespan %v", res.Makespan), false
	}
	tol := simRounding * res.Makespan
	var last float64
	for _, op := range c.s.Ops {
		st, fin := res.OpStart[op.ID], res.OpFinish[op.ID]
		if st < -tol || fin < st-tol {
			return fmt.Sprintf("op %d runs from %v to %v", op.ID, st, fin), false
		}
		for _, d := range op.Deps {
			if st < res.OpFinish[d]-tol {
				return fmt.Sprintf("op %d starts at %v before dependency %d finishes at %v", op.ID, st, d, res.OpFinish[d]), false
			}
		}
		last = max(last, fin)
	}
	if math.Abs(last-res.Makespan) > tol {
		return fmt.Sprintf("makespan %v but last op finishes at %v", res.Makespan, last), false
	}
	if c.want != 0 && math.Abs(res.Makespan-c.want) > simAgreement*c.want {
		return fmt.Sprintf("makespan %v, reference %v", res.Makespan, c.want), false
	}
	return "", c.want == 0 || res.Makespan == c.want
}

// modelBench prices the compiled schedule set with the simulator.
type modelBench struct {
	cases  []simCase
	params machine.Params
	rng    *rand.Rand
	// onSim, when set, sees every timed simulation: the traced run's span.
	onSim func(i int, t0, t1 time.Time)
}

func newModelBench(seed uint64) *modelBench {
	return &modelBench{params: machine.IGParams(), rng: rand.New(rand.NewPCG(seed, 0x51))}
}

// setup compiles the schedule set again and again until budget has
// passed (at least once) and returns the median compile time, then runs
// each schedule once to record its reference makespan.
func (b *modelBench) setup(seed uint64, budget time.Duration, checked *simTally) (float64, error) {
	var times []float64
	for start := time.Now(); len(times) == 0 || time.Since(start) < budget; {
		runtime.GC()
		t0 := time.Now()
		cases, err := compileModel(seed)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.cases = cases
	}
	for i := range b.cases {
		c := &b.cases[i]
		res, err := machine.Simulate(c.bind, b.params, c.s)
		checked.ops++
		if err != nil {
			checked.fail(c, err.Error())
			continue
		}
		if problem, _ := simCheck(c, res); problem != "" {
			checked.fail(c, problem)
			continue
		}
		c.want = res.Makespan
	}
	return median(times), nil
}

// simTally accumulates simulations: per-case latency samples in µs.
type simTally struct {
	latUs                [][]float64
	ops, failed, inexact int
	wall                 time.Duration
	firstProblem         string
}

func (t *simTally) fail(c *simCase, problem string) {
	t.failed++
	if t.firstProblem == "" {
		t.firstProblem = fmt.Sprintf("%s %d B: %s", c.class, c.size, problem)
	}
}

// simulate prices case i once, timing only the simulator call, and
// checks the result.
func (b *modelBench) simulate(i int, t *simTally) {
	c := &b.cases[i]
	t0 := time.Now()
	res, err := machine.Simulate(c.bind, b.params, c.s)
	t1 := time.Now()
	if b.onSim != nil {
		b.onSim(i, t0, t1)
	}
	lat := t1.Sub(t0)
	t.latUs[i] = append(t.latUs[i], float64(lat)/1e3)
	t.wall += lat
	t.ops++
	if err != nil {
		t.fail(c, err.Error())
		return
	}
	problem, exact := simCheck(c, res)
	switch {
	case problem != "":
		t.fail(c, problem)
	case !exact:
		t.inexact++
	}
}

// measure simulates the cases in seeded order, one pass after another,
// until d has passed (at least one pass).
func (b *modelBench) measure(d time.Duration) (simTally, memDelta) {
	t := simTally{latUs: make([][]float64, len(b.cases))}
	order := make([]int, len(b.cases))
	for i := range order {
		order[i] = i
	}
	m0 := readMem()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			b.simulate(i, &t)
		}
	}
	return t, diffMem(m0, readMem())
}
