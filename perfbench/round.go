package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"distcoll/internal/autotune"
	"distcoll/internal/binding"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/partition"
	"distcoll/internal/trace"
)

// coll is one public collective of the round.
type coll int

const (
	collBarrier coll = iota
	collBcast
	collAllgather
	collAllreduce
	collReduce
	collGather
	collScatter
	collAlltoall
	numColls
)

var collNames = [numColls]string{"barrier", "bcast", "allgather", "allreduce", "reduce", "gather", "scatter", "alltoall"}

const (
	// ranks is the paper's IG machine fully subscribed.
	ranks = 48
	// variants is the number of input sets rounds cycle through, so a
	// collective that leaves its output buffer untouched fails the oracle.
	// Bcast is the exception: with seeded roots, one variant's root block
	// can sit at the same pool offset as the next variant's, so the
	// non-root Bcast outputs are poisoned before every round instead.
	variants = 16
	// poison fills the non-root Bcast outputs before each round.
	poison = 0xa5
	// rootSets is the number of seeded root choices rounds cycle through
	// (variant v uses set v mod rootSets). Several sets keep one unlucky
	// root from setting a seed's result; warm-up visits every set, so the
	// timed rounds find every plan cached.
	rootSets = 4
)

// layerSet selects the optional observer layers of a world.
type layerSet uint8

const (
	layerTrace layerSet = 1 << iota
	layerIntegrity
	layerAutotune
	layerHealth
	layerPartition
	allLayers = layerTrace | layerIntegrity | layerAutotune | layerHealth | layerPartition
)

// namedLayers is a layer set with the name the per-layer metrics use.
type namedLayers struct {
	name string
	bit  layerSet
}

var layerNames = []namedLayers{
	{"trace", layerTrace},
	{"integrity", layerIntegrity},
	{"autotune", layerAutotune},
	{"health", layerHealth},
	{"partition", layerPartition},
}

// worldOptions builds the options of a world with the given layers at
// their defaults. A non-nil rec is the benchmark's own recording sink,
// attached only by the traced run.
func worldOptions(layers layerSet, rec trace.Sink) []mpi.Option {
	var opts []mpi.Option
	var sinks []trace.Sink
	if layers&layerTrace != 0 {
		sinks = append(sinks, trace.NewRing(0))
	}
	if rec != nil {
		sinks = append(sinks, rec)
	}
	if len(sinks) > 0 {
		opts = append(opts, mpi.WithTracer(trace.New(sinks...)))
	}
	if layers&layerIntegrity != 0 {
		opts = append(opts, mpi.WithIntegrity(integrity.Config{}))
	}
	if layers&layerAutotune != 0 {
		opts = append(opts, mpi.WithAutotune(autotune.Config{}))
	}
	if layers&layerHealth != 0 {
		opts = append(opts, mpi.WithHealth(health.Config{}))
	}
	if layers&layerPartition != 0 {
		opts = append(opts, mpi.WithPartitionDetector(partition.Config{}))
	}
	return opts
}

// crossSocket is the paper's adversarial placement: 48 ranks on IG with
// consecutive ranks on different sockets.
func crossSocket() (*hwtopo.Topology, *binding.Binding, error) {
	ig := hwtopo.NewIG()
	b, err := binding.CrossSocket(ig, ranks)
	return ig, b, err
}

// inputs holds every input buffer of every variant as a slice of one
// seeded pool, plus the expected results the pool alone does not give.
type inputs struct {
	block    int
	pool     []byte
	pristine []byte // copy of pool: a collective that writes into an input fails the oracle
	off      [variants][numColls]int
	root     [rootSets][numColls]int
	sum      [variants][numColls][]byte // reference Allreduce and Reduce results
}

func newInputs(seed uint64, block int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	in := &inputs{block: block}
	stride := block + 8 // offsets that are not block multiples give every variant distinct data
	for c := coll(0); c < numColls; c++ {
		for s := range in.root {
			in.root[s][c] = rng.IntN(ranks)
		}
		for v := 0; v < variants; v++ {
			in.off[v][c] = (v*int(numColls) + int(c)) * stride
		}
	}
	in.pool = make([]byte, variants*int(numColls)*stride+3*ranks*block)
	for i := 0; i+8 <= len(in.pool); i += 8 {
		binary.LittleEndian.PutUint64(in.pool[i:], rng.Uint64())
	}
	in.pristine = bytes.Clone(in.pool)
	for v := 0; v < variants; v++ {
		for _, c := range []coll{collAllreduce, collReduce} {
			in.sum[v][c] = referenceSum(in, v, c)
		}
	}
	return in
}

// referenceSum is the plain loop the int64 sum reductions are checked
// against: every rank's block, added element by element with wraparound.
func referenceSum(in *inputs, v int, c coll) []byte {
	out := make([]byte, in.block)
	for e := 0; e+8 <= in.block; e += 8 {
		var s int64
		for r := 0; r < ranks; r++ {
			s += int64(binary.LittleEndian.Uint64(in.blockOf(v, c, r)[e:]))
		}
		binary.LittleEndian.PutUint64(out[e:], uint64(s))
	}
	return out
}

// rootOf is the root of collective c in variant v.
func (in *inputs) rootOf(v int, c coll) int { return in.root[v%rootSets][c] }

// blockOf is rank r's input block for collective c in variant v.
func (in *inputs) blockOf(v int, c coll, r int) []byte {
	o := in.off[v][c] + r*in.block
	return in.pool[o : o+in.block : o+in.block]
}

// span is the n·block buffer that holds every rank's block of c in rank
// order: the expected Allgather and Gather output and the Scatter input.
func (in *inputs) span(v int, c coll) []byte {
	o := in.off[v][c]
	return in.pool[o : o+ranks*in.block : o+ranks*in.block]
}

// alltoallSend is rank r's Alltoall send buffer: block j starts at pool
// offset (2r+j)·block, so no rank's expected output equals its input.
func (in *inputs) alltoallSend(v, r int) []byte {
	o := in.off[v][collAlltoall] + 2*r*in.block
	return in.pool[o : o+ranks*in.block : o+ranks*in.block]
}

// alltoallWant is block j of rank i's expected Alltoall output: block i
// of rank j's send buffer.
func (in *inputs) alltoallWant(v, i, j int) []byte {
	o := in.off[v][collAlltoall] + (2*j+i)*in.block
	return in.pool[o : o+in.block]
}

// rankBufs are one rank's output buffers, one per collective, so a round
// can be checked after it ends.
type rankBufs struct {
	bcast, allgather, allreduce, scatter, alltoall []byte
}

// roundRec is what each rank records around each of its calls: entry and
// return times in nanoseconds since the benchmark's base time, and the
// returned error. Index i is the call's position in the round.
type roundRec struct {
	entry, exit [numColls][ranks]int64
	err         [numColls][ranks]error
}

// roundResult is one round as seen from outside: per position, the
// collective, its latency (latest return minus earliest entry) and
// whether it failed.
type roundResult struct {
	variant int
	order   [numColls]coll
	latUs   [numColls]float64
	failed  [numColls]bool
	problem string // the first failure found, for the report
	wall    time.Duration
	rec     roundRec
}

// mpiBench drives the round against one warm world communicator.
type mpiBench struct {
	block   int
	layers  layerSet
	bind    *binding.Binding
	in      *inputs
	bufs    [ranks]rankBufs
	gatherR []byte // Gather output: only the root passes it
	reduceR []byte // Reduce output: only the root passes it
	rng     *rand.Rand
	base    time.Time
	world   *mpi.World
	rec     trace.Sink // the traced run's recording sink; nil when untraced
	rounds  int        // rounds run so far: picks the next variant
}

func newMPIBench(seed uint64, block int, layers layerSet) (*mpiBench, error) {
	_, bind, err := crossSocket()
	if err != nil {
		return nil, err
	}
	b := &mpiBench{
		block:   block,
		layers:  layers,
		bind:    bind,
		in:      newInputs(seed, block),
		gatherR: make([]byte, ranks*block),
		reduceR: make([]byte, block),
		rng:     rand.New(rand.NewPCG(seed, 0x0de7)),
		base:    time.Now(),
	}
	for r := range b.bufs {
		b.bufs[r] = rankBufs{
			bcast:     make([]byte, block),
			allgather: make([]byte, ranks*block),
			allreduce: make([]byte, block),
			scatter:   make([]byte, block),
			alltoall:  make([]byte, ranks*block),
		}
	}
	return b, nil
}

// ownBytes is the payload memory the benchmark itself holds.
func (b *mpiBench) ownBytes() int {
	n := len(b.in.pool) + len(b.in.pristine) + len(b.gatherR) + len(b.reduceR)
	n += variants * 2 * b.block
	n += ranks * (3*b.block + 2*ranks*b.block)
	return n
}

// newWorld replaces the benchmark's world with a fresh one and returns
// how long construction took.
func (b *mpiBench) newWorld() time.Duration {
	if b.world != nil {
		b.world.Close()
	}
	t0 := time.Now()
	b.world = mpi.NewWorld(b.bind, worldOptions(b.layers, b.rec)...)
	return time.Since(t0)
}

// call is rank r's call of collective k with variant v's arguments.
func (b *mpiBench) call(c *mpi.Comm, r int, k coll, v int) error {
	in := b.in
	root := in.rootOf(v, k)
	switch k {
	case collBarrier:
		return c.Barrier()
	case collBcast:
		return c.Bcast(b.bufs[r].bcast, root, mpi.Adaptive)
	case collAllgather:
		return c.Allgather(in.blockOf(v, k, r), b.bufs[r].allgather, mpi.Adaptive)
	case collAllreduce:
		return c.Allreduce(in.blockOf(v, k, r), b.bufs[r].allreduce, mpi.OpSumInt64, mpi.Adaptive)
	case collReduce:
		var recv []byte
		if r == root {
			recv = b.reduceR
		}
		return c.Reduce(in.blockOf(v, k, r), recv, root, mpi.OpSumInt64, mpi.Adaptive)
	case collGather:
		var recv []byte
		if r == root {
			recv = b.gatherR
		}
		return c.Gather(in.blockOf(v, k, r), recv, root, mpi.KNEMColl)
	case collScatter:
		var send []byte
		if r == root {
			send = in.span(v, k)
		}
		return c.Scatter(send, b.bufs[r].scatter, root, mpi.KNEMColl)
	case collAlltoall:
		return c.Alltoall(in.alltoallSend(v, r), b.bufs[r].alltoall, mpi.KNEMColl)
	}
	return fmt.Errorf("perfbench: unknown collective %d", k)
}

// runRound runs one round on the current world: every rank calls every
// collective once in a seeded order. Timing covers the ranks' calls only;
// the oracle checks every output after all ranks have returned.
func (b *mpiBench) runRound() roundResult {
	order := canonicalOrder
	b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return b.runOrdered(order)
}

// canonicalOrder is the collectives in declaration order. Set-up rounds
// use it, so set-up time does not depend on which collective the seed
// puts first.
var canonicalOrder = [numColls]coll{collBarrier, collBcast, collAllgather, collAllreduce, collReduce, collGather, collScatter, collAlltoall}

// runOrdered runs one round with the collectives in the given order.
func (b *mpiBench) runOrdered(order [numColls]coll) roundResult {
	res := b.nextRound(order)
	v := res.variant
	rec := &res.rec
	base := b.base
	t0 := time.Now()
	_ = b.world.Run(func(p *mpi.Proc) error {
		c := p.Comm()
		r := p.Rank()
		for i, k := range res.order {
			entry := time.Since(base)
			err := b.call(c, r, k, v)
			exit := time.Since(base)
			rec.entry[i][r], rec.exit[i][r], rec.err[i][r] = int64(entry), int64(exit), err
		}
		return nil
	})
	res.wall = time.Since(t0)

	for i := range res.order {
		first, last := rec.entry[i][0], rec.exit[i][0]
		for r := 1; r < ranks; r++ {
			first = min(first, rec.entry[i][r])
			last = max(last, rec.exit[i][r])
		}
		res.latUs[i] = float64(last-first) / 1e3
	}
	b.check(&res)
	return res
}

// nextRound picks the next variant and prepares the Bcast buffers: the
// root's holds its input and every other rank's holds the poison.
func (b *mpiBench) nextRound(order [numColls]coll) roundResult {
	v := b.rounds % variants
	b.rounds++
	bcRoot := b.in.rootOf(v, collBcast)
	for r := range b.bufs {
		buf := b.bufs[r].bcast
		if r == bcRoot {
			copy(buf, b.in.blockOf(v, collBcast, r))
			continue
		}
		for i := range buf {
			buf[i] = poison
		}
	}
	return roundResult{variant: v, order: order}
}

// check is the oracle: an op fails if any rank returned an error or any
// rank's output differs from the expected bytes. A write into an input
// buffer fails every op of the round, and the inputs are restored.
func (b *mpiBench) check(res *roundResult) {
	var bad [numColls][ranks]bool
	parallelFor(ranks, func(r int) {
		for i, k := range res.order {
			bad[i][r] = res.rec.err[i][r] != nil || !b.outputOK(k, res.variant, r)
		}
	})
	inputsIntact := bytes.Equal(b.in.pool, b.in.pristine)
	if !inputsIntact {
		copy(b.in.pool, b.in.pristine)
	}
	if !inputsIntact {
		res.problem = "an input buffer was written"
	}
	for i, k := range res.order {
		res.failed[i] = !inputsIntact
		for r := 0; r < ranks; r++ {
			if !bad[i][r] {
				continue
			}
			res.failed[i] = true
			if res.problem == "" {
				res.problem = fmt.Sprintf("%s rank %d: output differs from expected", collNames[k], r)
				if err := res.rec.err[i][r]; err != nil {
					res.problem = fmt.Sprintf("%s rank %d: %v", collNames[k], r, err)
				}
			}
		}
	}
}

// outputOK reports whether rank r's output of collective k in variant v
// is exactly the expected bytes.
func (b *mpiBench) outputOK(k coll, v, r int) bool {
	in := b.in
	root := in.rootOf(v, k)
	switch k {
	case collBarrier:
		return true
	case collBcast:
		return bytes.Equal(b.bufs[r].bcast, in.blockOf(v, k, root))
	case collAllgather:
		return bytes.Equal(b.bufs[r].allgather, in.span(v, k))
	case collAllreduce:
		return bytes.Equal(b.bufs[r].allreduce, in.sum[v][k])
	case collReduce:
		return r != root || bytes.Equal(b.reduceR, in.sum[v][k])
	case collGather:
		return r != root || bytes.Equal(b.gatherR, in.span(v, k))
	case collScatter:
		return bytes.Equal(b.bufs[r].scatter, in.blockOf(v, k, r))
	case collAlltoall:
		recv := b.bufs[r].alltoall
		for j := 0; j < ranks; j++ {
			if !bytes.Equal(recv[j*b.block:(j+1)*b.block], in.alltoallWant(v, r, j)) {
				return false
			}
		}
		return true
	}
	return false
}

// tally accumulates rounds: per-collective latency samples, op counts
// and the wall time the ranks spent inside Run.
type tally struct {
	latUs        [numColls][]float64
	ops, failed  int
	wall         time.Duration
	firstProblem string
}

func (t *tally) add(res *roundResult) {
	for i, k := range res.order {
		t.latUs[k] = append(t.latUs[k], res.latUs[i])
		t.ops++
		if res.failed[i] {
			t.failed++
		}
	}
	if t.firstProblem == "" {
		t.firstProblem = res.problem
	}
	t.wall += res.wall
}

func (t *tally) sets() [][]float64 { return t.latUs[:] }

// setup builds fresh worlds, each followed by its first round (cold
// selector, world construction and plan builds), until budget has passed
// (at least once), and returns the median set-up time. Each starts after
// a full collection, so garbage from the previous one is not collected on
// its clock. The last world stays as the warm communicator.
func (b *mpiBench) setup(budget time.Duration, checked *tally) float64 {
	var times []float64
	for start := time.Now(); len(times) == 0 || time.Since(start) < budget; {
		runtime.GC()
		d := b.newWorld()
		res := b.runOrdered(canonicalOrder)
		checked.add(&res)
		times = append(times, (d + res.wall).Seconds())
	}
	return median(times)
}

// warm runs one round per root set, so the timed rounds that follow find
// every plan cached and every lazily built structure in place.
func (b *mpiBench) warm(checked *tally) {
	for i := 0; i < rootSets; i++ {
		res := b.runRound()
		checked.add(&res)
	}
}

// measure runs rounds until d has passed, at least minRounds, and
// tallies them.
func (b *mpiBench) measure(d time.Duration, minRounds int) (tally, memDelta) {
	var t tally
	m0 := readMem()
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < d; n++ {
		res := b.runRound()
		t.add(&res)
	}
	return t, diffMem(m0, readMem())
}
