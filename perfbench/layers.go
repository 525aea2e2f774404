package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"distcoll/internal/autotune"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/health"
	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

const (
	// maxEvents bounds the traced run's in-memory event record; the
	// traced pass stops early once it is full.
	maxEvents = 150_000
	// replayBudget bounds each replay of the recorded events into a fresh
	// observer; the emit cost is averaged over the events replayed.
	replayBudget = 1500 * time.Millisecond
	// outDir receives the traced run's spans and events.
	outDir = ".perfbench-out"
)

// recorder is the traced run's own sink: every event, in memory.
type recorder struct {
	mu     sync.Mutex
	events []trace.Event
	full   bool
}

func (r *recorder) Emit(e trace.Event) {
	r.mu.Lock()
	if len(r.events) < maxEvents {
		r.events = append(r.events, e)
	} else {
		r.full = true
	}
	r.mu.Unlock()
}

func (r *recorder) snapshot() ([]trace.Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events, r.full
}

// span is one public call on one rank (Rank -1 for a simulation), in
// nanoseconds since its pass started.
type span struct {
	Seq   int    `json:"seq"`
	Rank  int    `json:"rank"`
	Op    string `json:"op"`
	Entry int64  `json:"entry_ns"`
	Exit  int64  `json:"exit_ns"`
	Err   string `json:"err,omitempty"`
}

// runTraced is the per-layer run. The workload's own pass runs twice,
// untraced and then with spans and a recording sink, for the tracing
// overhead and the layer metrics the trace gives. The layers are then
// timed from outside at their public functions, the recorded events are
// replayed into fresh observers, and the bulk round is re-run with each
// observer layer alone. The model workload has no world, so its traced
// run takes the MPI-side layer metrics from the bulk round.
func runTraced(rep *report, w workload, seed uint64, d time.Duration) (int, int, error) {
	var c counts
	part := d / 3
	mpiW := w
	if w.name == "model" {
		mpiW = bulkWorkload
		rep.note("model has no world: mpi, knem, plancache and observer metrics below come from the %s round", mpiW.name)
	}
	// Each phase drops its payload buffers before the next allocates its
	// own (a 64 KiB round holds 300 MB), so the collection between phases
	// keeps the peak to one phase's.
	var events []trace.Event
	phases := []func() error{
		func() error { return layerCalls(rep, mpiW.block, seed) },
		func() error {
			if w.name == "model" {
				return tracedModel(rep, seed, part, &c)
			}
			return desClasses(rep, seed, &c)
		},
		func() (err error) {
			events, err = tracedMPI(rep, mpiW, w.name != "model", seed, part, &c)
			return err
		},
		func() error { return replays(rep, events) },
		func() error { return layerSweep(rep, seed, part, &c) },
	}
	for _, phase := range phases {
		runtime.GC()
		if err := phase(); err != nil {
			return 0, 0, err
		}
	}
	return c.attempted, c.failed, nil
}

// tracedMPI runs w's round traced and sets the mpi, knem, plancache,
// trace, integrity and partition metrics. With withBase it first runs the
// round untraced for the tracing overhead and the gc metrics (the model
// workload takes those from its own pass).
func tracedMPI(rep *report, w workload, withBase bool, seed uint64, d time.Duration, c *counts) ([]trace.Event, error) {
	b, err := newMPIBench(seed, w.block, w.layers)
	if err != nil {
		return nil, err
	}
	defer func() { b.world.Close() }()
	warm := func() {
		var checked tally
		b.setup(0, &checked)
		b.warm(&checked)
		c.addTally(rep, &checked)
	}
	var baseP50 float64
	if withBase {
		warm()
		t, mem := b.measure(d/2, 3)
		c.addTally(rep, &t)
		baseP50 = meanOfQuantiles(t.sets(), 0.5)
		setGC(rep, t.sets(), t.ops, mem)
	}

	rec := &recorder{}
	b.rec = rec
	warm()
	tr := b.world.Tracer()
	clockOff := int64(time.Since(b.base)) - tr.Now()
	// copiesAndProbes reads the device's copy count and the partition
	// detector's probe count. They are read again after each kept round,
	// so a round dropped for overflowing the record is not counted.
	copiesAndProbes := func() (int64, int64) {
		_, _, copies := b.world.Device().Stats()
		var probes int64
		if det := b.world.PartitionDetector(); det != nil {
			probes = det.Probes()
		}
		return copies, probes
	}
	copies0, probes0 := copiesAndProbes()
	copies1, probes1 := copies0, probes0
	before, _ := rec.snapshot()
	start, end := len(before), len(before)
	var rounds []roundResult
	deadline := time.Now().Add(d / 2)
	for len(rounds) < 3 || time.Now().Before(deadline) {
		res := b.runRound()
		var rt tally
		rt.add(&res)
		c.addTally(rep, &rt)
		got, full := rec.snapshot()
		if full {
			break // this round lost some of its events: leave it out
		}
		rounds = append(rounds, res)
		end = len(got)
		copies1, probes1 = copiesAndProbes()
	}
	all, full := rec.snapshot()
	events := all[start:end]
	if len(rounds) == 0 {
		return nil, fmt.Errorf("traced pass: the first round alone overflowed the %d-event record", maxEvents)
	}
	var t tally
	for i := range rounds {
		t.add(&rounds[i])
	}
	ops := float64(t.ops)
	tracedP50 := meanOfQuantiles(t.sets(), 0.5)
	rep.note("traced pass: %d rounds, %d ops, %d events (record full: %v)", len(rounds), t.ops, len(events), full)

	var entrySkew, exitSkew, noncopy [numColls][]float64
	cover := copyCover(events, clockOff)
	plans := planIDs(events, rounds)
	for ri := range rounds {
		res := &rounds[ri]
		for i, k := range res.order {
			first, firstExit := res.rec.entry[i][0], res.rec.exit[i][0]
			lastEntry, last := first, firstExit
			for r := 1; r < ranks; r++ {
				first = min(first, res.rec.entry[i][r])
				lastEntry = max(lastEntry, res.rec.entry[i][r])
				firstExit = min(firstExit, res.rec.exit[i][r])
				last = max(last, res.rec.exit[i][r])
			}
			entrySkew[k] = append(entrySkew[k], float64(lastEntry-first)/1e3)
			exitSkew[k] = append(exitSkew[k], float64(last-firstExit)/1e3)
			covered := coveredNs(cover[plans[ri][i]], first, last)
			noncopy[k] = append(noncopy[k], float64(last-first-covered)/1e3)
		}
	}
	rep.set("mpi.entry_skew_us_p50", meanOfQuantiles(entrySkew[:], 0.5), "us")
	rep.set("mpi.exit_skew_us_p50", meanOfQuantiles(exitSkew[:], 0.5), "us")
	rep.set("mpi.noncopy_us_p50", meanOfQuantiles(noncopy[:], 0.5), "us")

	var builds, retries, mismatches int
	var copyBytes, copyNs int64
	var copyDur []float64
	for _, e := range events {
		switch e.Kind {
		case trace.KindPlanBuild:
			builds++
		case trace.KindRetry:
			retries++
		case trace.KindIntegrity:
			mismatches++
		case trace.KindCopy:
			copyBytes += e.Bytes
			copyNs += e.Dur
			copyDur = append(copyDur, float64(e.Dur)/1e3)
		}
	}
	rep.set("mpi.plan_builds_per_op", float64(builds)/ops, "count")
	rep.set("knem.copies_per_op", float64(copies1-copies0)/ops, "count")
	rep.set("knem.copy_bytes_per_op", float64(copyBytes)/ops, "B")
	rep.set("knem.retries", float64(retries), "count")
	rep.set("knem.copy_us_p50", median(copyDur), "us")
	rep.set("knem.copy_MBps", float64(copyBytes)/(float64(copyNs)/1e3), "MB/s")
	st := b.world.PlanCache().Stats()
	rep.note("plan cache over set-up, warm-up and traced rounds: %d hits, %d misses", st.Hits, st.Misses)
	rep.set("plancache.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses), "ratio")
	rep.set("plancache.misses", float64(st.Misses), "count")
	rep.set("trace.events_per_op", float64(len(events))/ops, "count")
	rep.set("integrity.mismatches", float64(mismatches), "count")
	rep.set("partition.probes_per_op", float64(probes1-probes0)/ops, "count")
	if withBase {
		rep.note("tracing overhead: traced op_us_p50 %.1f us over untraced %.1f us", tracedP50, baseP50)
		rep.set("trace.overhead_x", tracedP50/baseP50, "x")
		rep.set("trace.overhead_base_us", baseP50, "us")
	}
	if err := writeTrace(w.name, roundSpans(rounds), events); err != nil {
		return nil, err
	}
	return events, nil
}

// copyCover returns, per plan id, the copy event intervals in the
// benchmark's clock.
func copyCover(events []trace.Event, clockOff int64) map[int64][][2]int64 {
	out := map[int64][][2]int64{}
	for _, e := range events {
		if e.Kind == trace.KindCopy {
			out[e.Plan] = append(out[e.Plan], [2]int64{e.T - e.Dur + clockOff, e.T + clockOff})
		}
	}
	return out
}

// coveredNs is the length of the union of ivs clipped to [lo, hi].
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// planIDs maps each call of each round to the plan it ran, by walking
// rank 0's op_begin events in call order (a Barrier has no plan and maps
// to -1, as does a call whose op_begin is missing).
func planIDs(events []trace.Event, rounds []roundResult) [][numColls]int64 {
	var begins []trace.Event
	for _, e := range events {
		if e.Kind == trace.KindOpBegin && e.Rank == 0 {
			begins = append(begins, e)
		}
	}
	out := make([][numColls]int64, len(rounds))
	next := 0
	for ri := range rounds {
		for i, k := range rounds[ri].order {
			out[ri][i] = -1
			if k == collBarrier || next >= len(begins) || begins[next].Op != collNames[k] {
				continue
			}
			out[ri][i] = begins[next].Plan
			next++
		}
	}
	return out
}

// roundSpans turns the traced rounds into spans, numbered by call.
func roundSpans(rounds []roundResult) []span {
	var out []span
	seq := 0
	for ri := range rounds {
		res := &rounds[ri]
		for i, k := range res.order {
			for r := 0; r < ranks; r++ {
				s := span{Seq: seq, Rank: r, Op: collNames[k], Entry: res.rec.entry[i][r], Exit: res.rec.exit[i][r]}
				if e := res.rec.err[i][r]; e != nil {
					s.Err = e.Error()
				}
				out = append(out, s)
			}
			seq++
		}
	}
	return out
}

// writeTrace writes a traced pass's spans and events as JSON lines under
// outDir, named after the pass.
func writeTrace(name string, spans []span, events []trace.Event) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	write := func(file string, fill func(w *bufio.Writer) error) error {
		f, err := os.Create(filepath.Join(outDir, file))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := fill(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	err := write(name+".spans.jsonl", func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if events == nil {
		return nil
	}
	return write(name+".events.jsonl", func(w *bufio.Writer) error {
		sink := trace.NewJSONL(w)
		for _, e := range events {
			sink.Emit(e)
		}
		return sink.Flush()
	})
}

// timeIt runs f until budget has passed (at least once) and returns the
// median duration of one call.
func timeIt(budget time.Duration, f func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// layerCalls times tune, core, exec and integrity from outside, at their
// public functions, on the workload's distance matrix and block size.
func layerCalls(rep *report, block int, seed uint64) error {
	ig, bind, err := crossSocket()
	if err != nil {
		return err
	}
	m := distance.NewMatrix(ig, bind.Cores())
	size := int64(block)
	root := newInputs(seed, 8).rootOf(0, collBcast)

	sel := tune.DefaultSelector()
	colls := []tune.Collective{tune.CollBcast, tune.CollAllgather, tune.CollAllreduce, tune.CollReduce}
	const decisions = 2000
	d, err := timeIt(50*time.Millisecond, func() error {
		for i := 0; i < decisions; i++ {
			sel.Select(colls[i%len(colls)], m, size)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("tune.decide_ns", float64(d)/decisions, "ns")

	var tree *core.Tree
	d, err = timeIt(100*time.Millisecond, func() (err error) {
		tree, err = core.BuildBroadcastTree(m, root, core.TreeOptions{})
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.tree_build_us", float64(d)/1e3, "us")
	var ring *core.Ring
	d, err = timeIt(100*time.Millisecond, func() (err error) {
		ring, err = core.BuildAllgatherRing(m, core.RingOptions{})
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.ring_build_us", float64(d)/1e3, "us")

	var scheds []*sched.Schedule
	compile := func() error {
		scheds = scheds[:0]
		var ss [7]*sched.Schedule
		var errs [7]error
		ss[0], errs[0] = core.CompileBroadcast(tree, size, 0)
		ss[1], errs[1] = core.CompileAllgather(ring, size)
		ss[2], errs[2] = core.CompileReduce(tree, size, 0)
		ss[3], errs[3] = core.CompileAllreduce(ring, size, mpi.OpSumInt64.ElemSize)
		ss[4], errs[4] = core.CompileGather(tree, size)
		ss[5], errs[5] = core.CompileScatter(tree, size)
		if size < mpi.AlltoallHierarchicalLimit {
			ss[6], errs[6] = core.CompileAlltoallHierarchical(m, size)
		} else {
			ss[6], errs[6] = core.CompileAlltoallDirect(ranks, size)
		}
		scheds = append(scheds, ss[:]...)
		return errors.Join(errs[:]...)
	}
	d, err = timeIt(200*time.Millisecond, compile)
	if err != nil {
		return err
	}
	rep.set("core.compile_us", float64(d)/1e3, "us")

	// One schedule at a time: the buffers of a 64 KiB alltoall alone are
	// 300 MB.
	var perSched []float64
	for i, s := range scheds {
		bufs := exec.Alloc(s)
		reduce := i == 2 || i == 3
		d, err := timeIt(100*time.Millisecond, func() error {
			if reduce {
				return exec.RunReduce(s, bufs, mpi.OpSumInt64.Combine)
			}
			return exec.Run(s, bufs)
		})
		if err != nil {
			return fmt.Errorf("exec schedule %d: %w", i, err)
		}
		perSched = append(perSched, float64(d)/1e3)
	}
	var sum float64
	for _, x := range perSched {
		sum += x
	}
	rep.set("exec.run_us", sum/float64(len(perSched)), "us")

	payload := newInputs(seed, block).blockOf(0, collBcast, 0)
	for _, f := range []struct {
		name string
		fn   func()
	}{
		{"integrity.digest_MBps", func() { integrity.Digest(payload) }},
		{"integrity.sum_MBps", func() { integrity.Sum(1, 2, 3, payload) }},
	} {
		reps := max(1, (1<<20)/len(payload))
		d, _ := timeIt(50*time.Millisecond, func() error {
			for i := 0; i < reps; i++ {
				f.fn()
			}
			return nil
		})
		rep.set(f.name, float64(reps*len(payload))/(float64(d)/1e3), "MB/s")
	}
	return nil
}

// replays feeds the traced pass's events into fresh instances of the
// trace, health and autotune layers and reports the emit cost per event
// and the revisions each published.
func replays(rep *report, events []trace.Event) error {
	if len(events) == 0 {
		return errors.New("traced pass recorded no events")
	}
	ig, bind, err := crossSocket()
	if err != nil {
		return err
	}
	m := distance.NewMatrix(ig, bind.Cores())

	tr := trace.New(trace.NewRing(0))
	rep.set("trace.emit_ns", replay(events, func(e trace.Event) { retrace(tr, e) }), "ns")

	hs := health.NewScorer(health.Config{})
	rep.set("health.emit_ns", replay(events, hs.Emit), "ns")
	rep.set("health.revisions", float64(hs.Revision()), "count")

	at := autotune.NewTuner(tune.DefaultSelector(), m, autotune.Config{})
	rep.set("autotune.emit_ns", replay(events, at.Emit), "ns")
	rep.set("autotune.revisions", float64(at.Revisions()), "count")
	return nil
}

// replay emits events in order until all are emitted or replayBudget has
// passed, and returns the mean nanoseconds per emitted event.
func replay(events []trace.Event, emit func(trace.Event)) float64 {
	start := time.Now()
	n := 0
	for _, e := range events {
		emit(e)
		n++
		if n%256 == 0 && time.Since(start) > replayBudget {
			break
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// retrace re-emits a recorded event through the tracer's public method
// for its kind; kinds the traced workloads do not produce are dropped.
func retrace(tr *trace.Tracer, e trace.Event) {
	switch e.Kind {
	case trace.KindOpBegin:
		tr.OpBegin(e.Op, e.Plan, e.Rank, e.Bytes)
	case trace.KindOpEnd:
		var err error
		if e.Err != "" {
			err = errors.New(e.Err)
		}
		tr.OpEnd(e.Op, e.Plan, e.Rank, time.Duration(e.Dur), err)
	case trace.KindCopy:
		tr.Copy(e.Op, e.Plan, e.Rank, e.Src, e.Dst, e.OpID, e.Chunk, e.Bytes, e.Dist, e.Mode, time.Duration(e.Dur))
	case trace.KindPlanBuild:
		tr.PlanBuild(e.Op, e.Plan, e.OpID, e.Chunk, e.Bytes)
	case trace.KindPlanReap:
		tr.PlanReap(e.Plan, e.Chunk)
	case trace.KindPlanCache:
		tr.PlanCache(e.Op, e.Plan, e.Bytes, e.Det, e.Mode == "hit")
	case trace.KindDeclare:
		tr.Declare(e.Rank, uint64(e.Plan), e.Bytes)
	case trace.KindDestroy:
		tr.Destroy(e.Rank, uint64(e.Plan))
	case trace.KindRetry:
		tr.Retry(e.Op, e.Rank, e.Chunk, errors.New(e.Err))
	}
}

// desSims is how many times desClasses prices each model case.
const desSims = 2

// desClasses prices the model workload's schedule set a few times and
// sets the per-class simulation time and allocations per simulation.
func desClasses(rep *report, seed uint64, c *counts) error {
	b := newModelBench(seed)
	var checked simTally
	if _, err := b.setup(seed, 0, &checked); err != nil {
		return err
	}
	c.addSims(rep, &checked)
	t := simTally{latUs: make([][]float64, len(b.cases))}
	m0 := readMem()
	for k := 0; k < desSims; k++ {
		for i := range b.cases {
			b.simulate(i, &t)
		}
	}
	mem := diffMem(m0, readMem())
	c.addSims(rep, &t)
	setDES(rep, b, &t, mem)
	return nil
}

// setDES sets des.<class>.sim_ms_p50 (the mean over sizes of the
// per-size medians) and des.allocs_per_sim.
func setDES(rep *report, b *modelBench, t *simTally, mem memDelta) {
	for _, class := range modelClasses {
		var sets [][]float64
		for i, cs := range b.cases {
			if cs.class == class {
				sets = append(sets, t.latUs[i])
			}
		}
		rep.set("des."+class+".sim_ms_p50", meanOfQuantiles(sets, 0.5)/1e3, "ms")
	}
	rep.set("des.allocs_per_sim", float64(mem.mallocs)/float64(t.ops), "count")
	rep.set("des.inexact_ratio", float64(t.inexact)/float64(t.ops), "ratio")
}

// setGC sets the gc metrics of an untraced pass: collections and pause
// time per op, and the pass's op_us_p90, the tail the collections drive
// (GOGC=400 brings small's p90 from 1.6 to 1.2 times its p50).
func setGC(rep *report, lat [][]float64, ops int, mem memDelta) {
	rep.set("gc.cycles_per_op", float64(mem.gcs)/float64(ops), "count")
	rep.set("gc.pause_us_per_op", float64(mem.pauseNs)/1e3/float64(ops), "us")
	rep.set("gc.op_us_p90", meanOfQuantiles(lat, 0.9), "us")
}

// tracedModel runs the model workload untraced and then with a span
// around every simulation, and sets the des, trace overhead and gc
// metrics.
func tracedModel(rep *report, seed uint64, d time.Duration, c *counts) error {
	b := newModelBench(seed)
	var checked simTally
	if _, err := b.setup(seed, 0, &checked); err != nil {
		return err
	}
	c.addSims(rep, &checked)
	base, mem := b.measure(d / 2)
	c.addSims(rep, &base)
	setGC(rep, base.latUs, base.ops, mem)

	var spans []span
	start := time.Now()
	b.onSim = func(i int, t0, t1 time.Time) {
		spans = append(spans, span{Seq: len(spans), Rank: -1, Op: b.cases[i].class,
			Entry: int64(t0.Sub(start)), Exit: int64(t1.Sub(start))})
	}
	traced, tmem := b.measure(d / 2)
	b.onSim = nil
	if err := writeTrace("model", spans, nil); err != nil {
		return err
	}
	c.addSims(rep, &traced)
	setDES(rep, b, &traced, tmem)
	baseP50, tracedP50 := meanOfQuantiles(base.latUs, 0.5), meanOfQuantiles(traced.latUs, 0.5)
	rep.note("tracing overhead: traced op_us_p50 %.1f us over untraced %.1f us (%d spans)", tracedP50, baseP50, len(spans))
	rep.set("trace.overhead_x", tracedP50/baseP50, "x")
	rep.set("trace.overhead_base_us", baseP50, "us")
	return nil
}

// layerSweep re-runs the bulk round with each observer layer alone, and
// with all five, and sets each op_us_p50 as a ratio to the plain round's.
func layerSweep(rep *report, seed uint64, d time.Duration, c *counts) error {
	b, err := newMPIBench(seed, bulkWorkload.block, 0)
	if err != nil {
		return err
	}
	defer func() { b.world.Close() }()
	configs := append([]namedLayers{{"plain", 0}}, layerNames...)
	configs = append(configs, namedLayers{"all", allLayers})
	each := d / time.Duration(len(configs))
	var base float64
	for _, cfg := range configs {
		b.layers = cfg.bit
		var checked tally
		b.setup(0, &checked)
		b.warm(&checked)
		t, _ := b.measure(each, 2)
		c.addTally(rep, &checked)
		c.addTally(rep, &t)
		p50 := meanOfQuantiles(t.sets(), 0.5)
		if cfg.bit == 0 {
			base = p50
			rep.set("layer.base_us", base, "us")
			continue
		}
		rep.note("layer %-9s: op_us_p50 %.1f us over plain bulk %.1f us (%d rounds)", cfg.name, p50, base, len(t.latUs[0]))
		rep.set("layer."+cfg.name+".cost_x", p50/base, "x")
	}
	return nil
}
