// Command perfbench is distcoll's benchmark: live collectives on a warm
// 48-rank world communicator (IG, cross-socket binding), and the
// simulator that prices schedules.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - small: one round calls every public collective once (Bcast,
//     Allgather, Allreduce and Reduce through Adaptive; Gather, Scatter
//     and Alltoall through KNEMColl; Barrier) with 8 B per message or
//     block. Bytes are negligible, so the time is the runtime's
//     rendezvous, plan lookup, watchdog bookkeeping and outcome vote.
//   - bulk-layers: the same round with 64 KiB per message or block and
//     the five observer layers on at their defaults (tracer with a ring
//     sink, integrity, autotune, health, partition detector), so observer
//     work is added to the copy work.
//   - model: no world; each op prices one compiled schedule with the
//     discrete-event simulator, the hot path of delta repair, autotune
//     re-pricing, calibration and the figure suite.
//   - bulk: bulk-layers' round with every optional layer off, so KNEM
//     copies and schedule execution dominate. It is runnable but not in
//     BENCHMARK.json: its round streams 150 MB per Allgather or Alltoall
//     through memory, and on a shared host its times moved by more than
//     the spread bound from one set of runs to the next. It is the base
//     of the traced run's layer costs.
//
// Load is closed-loop from one process: each of the 48 rank goroutines
// calls the next collective only when the previous one has returned.
// Payloads, the collective order of each round and the roots come from
// --seed. An op's latency is the latest rank return minus the earliest
// rank entry (IMB's t_max). Every output is checked against expected
// bytes after the round, outside the timed calls.
//
// With --trace 0 the run attaches no tracer and prints the end-to-end
// metrics. With --trace 1 it prints the per-layer metrics instead: a
// traced pass records a span around every call and the program's own
// trace events, and the layers are timed from outside at their public
// functions. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Which end-to-end figure each per-layer metric should move:
//
//   - mpi.* (skews, self time outside copies, plan builds): op_us_p50 on
//     small; little on bulk.
//   - knem.*: ops_per_s on bulk (and, diluted by observer work, on
//     bulk-layers); nothing on small or model.
//   - plancache.*, tune.decide_ns, core.*: setup_s on the MPI workloads;
//     the warm rounds hit the cache.
//   - exec.run_us, the copy floor without rendezvous: op_us_p50 on bulk.
//   - trace.*, integrity.*, health.*, autotune.*, partition.* and
//     layer.*.cost_x: op_us_p50 and allocs_per_op on bulk-layers; nothing
//     on bulk.
//   - des.*: op_us_p50 on model; nothing on the MPI workloads.
//   - gc.*: the op_us_p90 printed on the report of every workload (and
//     kept as gc.op_us_p90), and op_us_p50 and ops_per_s. op_us_p90 is
//     not an end-to-end metric: on small, with a CPU hog busy half the
//     time on one of two vCPUs, an 8 s run read op_us_p90 13% higher
//     and op_us_p50 no higher, and ten-seed sets on a shared host spread
//     op_us_p90 by 0.19 to 0.37 of its median.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// workload is one input set of the benchmark.
type workload struct {
	name   string
	block  int // bytes per message or block; 0 for model
	layers layerSet
}

// bulkWorkload is the plain 64 KiB round: the base of the layer costs,
// and the round the model workload's traced run borrows.
var bulkWorkload = workload{name: "bulk", block: 64 << 10}

var workloads = []workload{
	{name: "small", block: 8},
	bulkWorkload,
	{name: "bulk-layers", block: bulkWorkload.block, layers: allLayers},
	{name: "model"},
}

const (
	// setupBudget is how long a run keeps setting up from scratch;
	// setup_s is the median of those set-ups. One set-up varies by 15% or
	// more with the host's scheduling, so a run takes many.
	setupBudget = 4 * time.Second
	// runLimit bounds a whole run: a hang in the program must end the
	// benchmark with an error, not stall it.
	runLimit = 170 * time.Second
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they are set, with notes printed
// before the JSON line.
type report struct {
	names   []string
	metrics map[string]metric
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: small, bulk, bulk-layers or model")
	seed := flag.Uint64("seed", 1, "seed of payloads, collective order and roots")
	seconds := flag.Int("seconds", 10, "seconds of measurement")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()

	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	if err := run(os.Stdout, *name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(out io.Writer, name string, seed uint64, seconds, traced int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traced)
	}
	d := time.Duration(seconds) * time.Second
	rep := newReport()
	var attempted, failed int
	switch {
	case traced == 1:
		attempted, failed, err = runTraced(rep, w, seed, d)
	case w.name == "model":
		attempted, failed, err = runModel(rep, seed, d)
	default:
		attempted, failed, err = runMPI(rep, w, seed, d)
	}
	if err != nil {
		return err
	}
	return emit(out, rep, w, seed, attempted, failed)
}

func emit(out io.Writer, rep *report, w workload, seed uint64, attempted, failed int) error {
	if attempted < 1 {
		return errors.New("no op was attempted")
	}
	fmt.Fprintf(out, "workload %s seed %d\n", w.name, seed)
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Fprintf(out, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// endToEnd sets the seven end-to-end metrics shared by every workload.
func endToEnd(rep *report, setupS float64, lat [][]float64, ops int, wall time.Duration, mem memDelta, heapMB float64, c counts) {
	attempted, failed := c.attempted, c.failed
	samples := 0
	for _, xs := range lat {
		samples += len(xs)
	}
	rep.note("timed ops %d (%d latency samples over %d kinds), wall %.3f s, error_rate %g (%d of %d ops checked)",
		ops, samples, len(lat), wall.Seconds(), float64(failed)/float64(attempted), failed, attempted)
	rep.note("op_us_p90 %.1f us (printed only: the tail follows the host's load)", meanOfQuantiles(lat, 0.9))
	rep.set("setup_s", setupS, "s")
	rep.set("op_us_p50", meanOfQuantiles(lat, 0.5), "us")
	rep.set("ops_per_s", float64(ops)/wall.Seconds(), "1/s")
	rep.set("allocs_per_op", float64(mem.mallocs)/float64(ops), "count")
	rep.set("alloc_KB_per_op", float64(mem.bytes)/1024/float64(ops), "KB")
	rep.set("heap_MB", heapMB, "MB")
	rep.set("ok_rate", float64(attempted-failed)/float64(attempted), "ratio")
}

// counts accumulates the ops a run checked, over all of its passes.
type counts struct{ attempted, failed int }

// add counts a pass's ops and notes its first oracle problem.
func (c *counts) add(rep *report, ops, failed int, problem string) {
	c.attempted += ops
	c.failed += failed
	if problem != "" {
		rep.note("oracle: %s", problem)
	}
}

func (c *counts) addTally(rep *report, t *tally) { c.add(rep, t.ops, t.failed, t.firstProblem) }

func (c *counts) addSims(rep *report, t *simTally) { c.add(rep, t.ops, t.failed, t.firstProblem) }

// runMPI is the untraced run of an MPI workload.
func runMPI(rep *report, w workload, seed uint64, d time.Duration) (int, int, error) {
	b, err := newMPIBench(seed, w.block, w.layers)
	if err != nil {
		return 0, 0, err
	}
	defer func() { b.world.Close() }()
	var checked tally
	setupS := b.setup(setupBudget, &checked)
	b.warm(&checked)
	t, mem := b.measure(d, 3)
	heap := liveHeapMB(b.ownBytes())
	var c counts
	c.addTally(rep, &checked)
	c.addTally(rep, &t)
	for k := coll(0); k < numColls; k++ {
		xs := t.latUs[k]
		rep.note("  %-10s n=%-6d p50 %10.1f us  p90 %10.1f us", collNames[k], len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	endToEnd(rep, setupS, t.sets(), t.ops, t.wall, mem, heap, c)
	return c.attempted, c.failed, nil
}

// runModel is the untraced run of the model workload.
func runModel(rep *report, seed uint64, d time.Duration) (int, int, error) {
	b := newModelBench(seed)
	var checked simTally
	setupS, err := b.setup(seed, setupBudget, &checked)
	if err != nil {
		return 0, 0, err
	}
	t, mem := b.measure(d)
	heap := liveHeapMB(0)
	var c counts
	c.addSims(rep, &checked)
	c.addSims(rep, &t)
	for i, cs := range b.cases {
		xs := t.latUs[i]
		rep.note("  %-16s %8d B ops %5d  n=%-4d p50 %10.1f us  p90 %10.1f us", cs.class, cs.size, len(cs.s.Ops), len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	endToEnd(rep, setupS, t.latUs, t.ops, t.wall, mem, heap, c)
	return c.attempted, c.failed, nil
}
