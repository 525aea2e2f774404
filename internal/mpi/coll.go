package mpi

import (
	"fmt"
	"sync/atomic"
	"time"

	"distcoll/internal/distance"
	"distcoll/internal/fault"
	"distcoll/internal/integrity"
	"distcoll/internal/knem"
	"distcoll/internal/partition"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// Component selects the collective implementation, mirroring Open MPI's
// collective component framework.
type Component int

const (
	// KNEMColl is the paper's distance-aware component: topologies built
	// from runtime process distance, executed as receiver-driven
	// kernel-assisted single copies.
	KNEMColl Component = iota
	// Tuned is the rank-based Open MPI baseline over the SM/KNEM BTL.
	Tuned
	// MPICH2 is the MPICH2-1.4 baseline over nemesis double-copy shared
	// memory.
	MPICH2
	// Adaptive is the selection layer (DESIGN.md §8): each collective call
	// consults the world's tune.Selector for the best {component, tree
	// shape, chunk} at this (topology, size) and reuses compiled schedules
	// through the world's plan cache.
	Adaptive
)

func (c Component) String() string {
	switch c {
	case KNEMColl:
		return "knemcoll"
	case Tuned:
		return "tuned"
	case MPICH2:
		return "mpich2"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Transient KNEM copy failures are retried with exponential backoff before
// the collective gives up; MaxTransients-bounded injection plans are
// guaranteed to converge well inside the attempt budget.
const (
	copyRetryAttempts = 8
	copyRetryBase     = 20 * time.Microsecond
)

// collPlan is the shared execution state of one collective: the compiled
// schedule, the real backing buffers, KNEM cookies, and per-op completion
// gates. Cookie cleanup is handled by a reaper: the LAST member to leave
// execute force-destroys every region, which works on the success path and
// on every abandonment path (failure, watchdog timeout, crash) alike,
// since even a crashing member leaves execute.
type collPlan struct {
	s       *sched.Schedule
	op      string // collective name for trace attribution
	id      int64  // world-unique plan id
	bufs    [][]byte
	cookies []knem.Cookie
	done    []chan struct{}
	world   *World
	members int
	leavers atomic.Int32

	// End-to-end digests (set only when integrity verification is on):
	// the broadcast origin's payload digest, piggybacked to every member
	// through the shared plan exactly like the payload itself travels the
	// tree, and the allgather contributors' per-segment digests carried
	// around the ring. Written once by the plan builder, read-only after.
	digest    uint32
	hasDigest bool
	digests   []uint32

	// onDone[commRank], when non-nil, observes every op that member
	// performed successfully — after the (possibly integrity-verified)
	// copy, before the completion signal. It feeds the progress ledgers
	// behind incremental recovery: what is marked here is exactly what a
	// later delta repair may serve to other survivors. Written once by the
	// plan builder, read-only after.
	onDone []func(o *sched.Op)
}

// notePlanCache emits the Adaptive component's plan_cache event for this
// plan, tying the selector's decision to the plan id so the trace carries
// the decision → measured-duration correlation. A nil ad (any fixed
// component) is a no-op.
func (p *collPlan) notePlanCache(ad *adecision) {
	if ad == nil {
		return
	}
	p.world.tracer.PlanCache(string(ad.coll), p.id, ad.bytes, ad.dec.String(), ad.hit)
}

// isDone reports op completion for the pending-op diagnostic.
func (p *collPlan) isDone(id sched.OpID) bool {
	select {
	case <-p.done[id]:
		return true
	default:
		return false
	}
}

// reap releases every KNEM region of the plan. Called exactly once, by the
// last member to leave execute, so no member can still be mid-copy.
func (p *collPlan) reap() {
	if p.world == nil {
		return
	}
	for _, cookie := range p.cookies {
		p.world.dev.ForceDestroy(cookie)
	}
	p.world.tracer.PlanReap(p.id, len(p.cookies))
}

// emptyPlan is the no-op plan for zero-byte collectives.
func (st *commState) emptyPlan(op string, n int) *collPlan {
	return &collPlan{s: sched.New(n), op: op, world: st.world, members: len(st.group)}
}

// newPlan validates the schedule, binds the members' buffers, allocates
// auxiliary ones (bounce/temporary segments), and declares every buffer as
// a KNEM region owned by the member's WORLD rank (fault plans address
// world ranks).
func (st *commState) newPlan(op string, s *sched.Schedule, args []collArgs) (*collPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan := &collPlan{
		s:       s,
		op:      op,
		id:      st.world.nplan.Add(1),
		bufs:    make([][]byte, len(s.Buffers)),
		cookies: make([]knem.Cookie, len(s.Buffers)),
		done:    make([]chan struct{}, len(s.Ops)),
		world:   st.world,
		members: len(st.group),
	}
	for i, spec := range s.Buffers {
		if b := args[spec.Rank].buffer(spec.Name, spec.Rank == args[0].root); b != nil {
			if int64(len(b)) != spec.Bytes {
				return nil, fmt.Errorf("mpi: rank %d buffer %q is %d bytes, schedule expects %d",
					spec.Rank, spec.Name, len(b), spec.Bytes)
			}
			plan.bufs[i] = b
		} else {
			plan.bufs[i] = make([]byte, spec.Bytes)
		}
		plan.cookies[i] = st.world.mover.Declare(st.group[spec.Rank], plan.bufs[i])
	}
	for i := range plan.done {
		plan.done[i] = make(chan struct{})
	}
	st.world.tracer.PlanBuild(op, plan.id, len(s.Ops), len(s.Buffers), s.TotalCopiedBytes())
	return plan, nil
}

// collArgs is one member's contribution to a collective call.
type collArgs struct {
	send, recv []byte
	size       int // the buffer length every member must pass identically
	root       int
	comp       Component
	op         ReduceOp // Reduce and Allreduce only
	// Progress ledgers of the resilient wrappers (nil elsewhere): the seal
	// hooks wire them into the plan so every verified chunk or segment
	// is recorded for a possible later delta repair.
	chunks *recovery.ChunkLedger
	segs   *recovery.SegLedger
}

// buffer binds a schedule buffer name to the member's caller buffer: every
// compiler names the payload "data" (broadcast) or "send", and the result
// "recv" — or "acc" for reductions, where every rank accumulates but only
// the root's accumulator is the caller's. Nil leaves the buffer to newPlan.
func (a *collArgs) buffer(name string, isRoot bool) []byte {
	switch name {
	case "data", "send":
		return a.send
	case "recv":
		return a.recv
	case "acc":
		if isRoot {
			return a.recv
		}
	}
	return nil
}

// elemSize is the reduction element size (1 for byte-wise operators).
func (a *collArgs) elemSize() int64 { return max(a.op.ElemSize, 1) }

// collDesc describes one public collective to the shared pipeline.
type collDesc struct {
	coll   tune.Collective // name, decision and plan-cache key
	rooted bool            // root must name a member
	reduce bool            // combines with a ReduceOp: element check, align
	// check validates the collective's buffer shapes over all members'
	// arguments (already agreed on root, component, operator and size) and
	// returns the schedule's byte count: the full message, or the per-rank
	// block. Nil means the agreed size itself.
	check func(args []collArgs) (int64, error)
	// seal attaches end-to-end digests and ledger hooks to a fresh plan;
	// exact says the schedule copies at true payload offsets, so per-op
	// ledger marks are meaningful.
	seal func(c *Comm, plan *collPlan, args []collArgs, exact bool)
	// verify checks this member's delivered result after execution.
	verify func(c *Comm, plan *collPlan, a *collArgs) error
	// repair chooses a recovery schedule from the survivors' ledgers
	// (resilient collectives only; see delta.go).
	repair func(c *Comm, args []collArgs, full *sched.Schedule, bytes int64) (*sched.Schedule, string, int)
}

// agree is the cross-rank argument check run by the last arriver, so every
// member gets the same verdict. It returns the typed arguments and the
// schedule's byte count.
func (d *collDesc) agree(vals []any) ([]collArgs, int64, error) {
	args := make([]collArgs, len(vals))
	for i, v := range vals {
		a, ok := v.(collArgs)
		if !ok {
			return nil, 0, fmt.Errorf("mpi: %s coordination corrupted", d.coll)
		}
		args[i] = a
		if a.root != args[0].root || a.comp != args[0].comp || a.op.Name != args[0].op.Name || a.size != args[0].size {
			return nil, 0, fmt.Errorf("mpi: %s arguments mismatch across ranks", d.coll)
		}
	}
	a := &args[0]
	if d.rooted && (a.root < 0 || a.root >= len(args)) {
		return nil, 0, fmt.Errorf("mpi: %s root %d out of range", d.coll, a.root)
	}
	if d.reduce && int64(a.size)%a.elemSize() != 0 {
		return nil, 0, fmt.Errorf("mpi: %s buffer of %d bytes is not a multiple of element size %d",
			d.coll, a.size, a.elemSize())
	}
	if d.check == nil {
		return args, int64(a.size), nil
	}
	bytes, err := d.check(args)
	return args, bytes, err
}

// collective is the one pipeline every public collective runs through:
// coordinate → check → decide → plan cache → newPlan → execute → verify →
// vote. The last arriver checks, decides and binds exactly once; every
// member then executes its share of the shared plan.
func (c *Comm) collective(d *collDesc, a collArgs) error {
	_, result, err := c.coordinate(a, func(vals []any) (any, error) {
		args, bytes, err := d.agree(vals)
		if err != nil {
			return nil, err
		}
		if bytes == 0 {
			return c.state.emptyPlan(string(d.coll), len(args)), nil
		}
		s, ad, err := c.schedule(d, &args[0], bytes)
		if err != nil {
			return nil, err
		}
		plan, err := c.state.newPlan(string(d.coll), s, args)
		if err != nil {
			return nil, err
		}
		plan.notePlanCache(ad)
		if d.seal != nil {
			d.seal(c, plan, args, args[0].comp == KNEMColl)
		}
		return plan, nil
	})
	if err != nil {
		return err
	}
	return c.runPlan(result.(*collPlan), d, &a)
}

// Bcast broadcasts the root's buffer to every member. All members must
// pass equal-length buffers, the same root and the same component.
func (c *Comm) Bcast(buf []byte, root int, comp Component) error {
	return c.collective(&bcastColl, collArgs{send: buf, size: len(buf), root: root, comp: comp})
}

// bcastColl broadcasts args.send from the root. Ledger rule (the
// resilient wrappers' chunk ledger): per-op chunk marks only for the
// distance-aware component, whose schedule copies straight between the
// caller "data" buffers at true payload offsets; the baseline components
// stage through bounce buffers, so for them (and for any component when
// integrity is on) the whole buffer is marked held only after the
// end-to-end digest verifies. A failed digest clears the ledger instead —
// nothing in the buffer can be trusted.
var bcastColl = collDesc{
	coll:   tune.CollBcast,
	rooted: true,
	seal: func(c *Comm, plan *collPlan, args []collArgs, exact bool) {
		if c.state.world.e2eEnabled() {
			plan.digest = integrity.Digest(args[args[0].root].send)
			plan.hasDigest = true
		}
		if exact {
			attachBcastLedgers(plan, args)
		}
	},
	verify: func(c *Comm, plan *collPlan, a *collArgs) error {
		err := c.verifyBcastDigest(plan, a.send, a.root)
		if a.chunks == nil {
			return err
		}
		if err != nil {
			a.chunks.Reset()
		} else if plan.hasDigest {
			a.chunks.MarkAll()
		}
		return err
	},
	repair: (*Comm).chooseBcastRecovery,
}

// attachBcastLedgers wires each member's progress ledger into the plan's
// completion hooks: every pull into the "data" buffer marks its payload
// span held. Offsets in the distance-aware broadcast schedule are true
// payload offsets, so the mark is exact; with integrity on, the hook runs
// only after the per-hop checksum verified, so only verified chunks count
// as held.
func attachBcastLedgers(plan *collPlan, args []collArgs) {
	s := plan.s
	for i := range args {
		led := args[i].chunks
		if led == nil {
			continue
		}
		if plan.onDone == nil {
			plan.onDone = make([]func(*sched.Op), len(args))
		}
		plan.onDone[i] = func(o *sched.Op) {
			if s.Buffers[o.Dst].Name == "data" {
				led.MarkHeld(o.DstOff, o.Bytes)
			}
		}
	}
}

// verifyBcastDigest is the end-to-end integrity check of a broadcast: the
// origin's payload digest (piggybacked down the tree via the shared plan)
// must match the delivered buffer on every receiver. It catches whatever
// the per-hop checksums could not attribute to a single edge.
func (c *Comm) verifyBcastDigest(plan *collPlan, buf []byte, root int) error {
	w := c.state.world
	if w.integ == nil || !plan.hasDigest || c.rank == root {
		return nil
	}
	got := integrity.Digest(buf)
	if got == plan.digest {
		return nil
	}
	w.integ.E2EFailure()
	me, origin := c.state.group[c.rank], c.state.group[root]
	w.tracer.Integrity(plan.op, plan.id, me, origin, -1, -1, plan.digest, got)
	return &CorruptionError{Src: origin, Dst: me, Chunk: -1, EndToEnd: true}
}

// Allgather gathers every member's send buffer into every member's recv
// buffer in communicator-rank order. recv must be Size()·len(send) bytes.
func (c *Comm) Allgather(send, recv []byte, comp Component) error {
	return c.collective(&allgatherColl, collArgs{send: send, recv: recv, size: len(send), comp: comp})
}

// allgatherColl gathers every member's block, under the same ledger rules
// as bcastColl: exact per-segment marks for the distance-aware component
// (whose ring schedule lands whole blocks at their final recv offsets),
// whole-result marks after a verified end-to-end digest pass, a full clear
// after a failed one.
var allgatherColl = collDesc{
	coll: tune.CollAllgather,
	check: func(args []collArgs) (int64, error) {
		for _, a := range args {
			if len(a.recv) != len(args)*a.size {
				return 0, fmt.Errorf("mpi: allgather recv buffer is %d bytes, want %d", len(a.recv), len(args)*a.size)
			}
		}
		return int64(args[0].size), nil
	},
	seal: func(c *Comm, plan *collPlan, args []collArgs, exact bool) {
		if c.state.world.e2eEnabled() {
			plan.digests = make([]uint32, len(args))
			for i := range args {
				plan.digests[i] = integrity.Digest(args[i].send)
			}
		}
		if exact {
			attachAllgatherLedgers(plan, args, c.state.group, int64(args[0].size))
		}
	},
	verify: func(c *Comm, plan *collPlan, a *collArgs) error {
		err := c.verifyAllgatherDigests(plan, a.recv, a.size)
		if a.segs == nil {
			return err
		}
		if err != nil {
			a.segs.Reset()
		} else if plan.digests != nil {
			a.segs.MarkHeldAll(c.state.group)
		}
		return err
	},
	repair: (*Comm).chooseAllgatherRecovery,
}

// attachAllgatherLedgers wires each member's segment ledger into the
// plan's completion hooks: a whole block landing at a block-aligned recv
// offset marks that origin's segment held. Origins are recorded as WORLD
// ranks (group translates the layout index), so the marks survive
// communicator shrinks.
func attachAllgatherLedgers(plan *collPlan, args []collArgs, group []int, block int64) {
	s := plan.s
	owners := append([]int(nil), group...)
	for i := range args {
		led := args[i].segs
		if led == nil {
			continue
		}
		if plan.onDone == nil {
			plan.onDone = make([]func(*sched.Op), len(args))
		}
		plan.onDone[i] = func(o *sched.Op) {
			if s.Buffers[o.Dst].Name != "recv" || o.Bytes != block || o.DstOff%block != 0 {
				return
			}
			if idx := int(o.DstOff / block); idx >= 0 && idx < len(owners) {
				led.MarkHeld(owners[idx])
			}
		}
	}
}

// verifyAllgatherDigests is the end-to-end integrity check of an
// allgather: every gathered segment must match its contributor's digest
// (carried around the ring via the shared plan).
func (c *Comm) verifyAllgatherDigests(plan *collPlan, recv []byte, block int) error {
	w := c.state.world
	if w.integ == nil || plan.digests == nil || block == 0 {
		return nil
	}
	me := c.state.group[c.rank]
	for r := range plan.digests {
		got := integrity.Digest(recv[r*block : (r+1)*block])
		if got == plan.digests[r] {
			continue
		}
		w.integ.E2EFailure()
		origin := c.state.group[r]
		w.tracer.Integrity(plan.op, plan.id, me, origin, r, -1, plan.digests[r], got)
		return &CorruptionError{Src: origin, Dst: me, Chunk: r, EndToEnd: true}
	}
	return nil
}

// distanceMatrix returns the member-to-member process distances from the
// runtime binding (cached for the communicator's lifetime).
func (c *Comm) distanceMatrix() distance.Matrix {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.matrixLocked()
}

// runPlan executes this member's share of the plan, runs the descriptor's
// verification hook (the end-to-end digest check), and joins the outcome
// vote. The hook runs after this member's share completed but before the
// completion rendezvous, and its verdict is deposited INTO the
// rendezvous: the completion barrier doubles as an agreement on the
// collective's outcome, so either every member observes a digest failure
// or none does. Without that, the one rank that detected corruption would
// retry while the others moved on — a silent divergence of the resilient
// recovery loops. A member that crashed must NOT join the vote — it is
// dead; its absence is precisely what tells the survivors to fail over.
func (c *Comm) runPlan(plan *collPlan, d *collDesc, a *collArgs) error {
	finishBracket := c.opBracket(plan)
	err := c.execute(plan, a.op)
	if fault.IsCrashed(err) {
		finishBracket(err)
		return err
	}
	if err == nil && d.verify != nil {
		err = d.verify(c, plan, a)
	}
	if ferr := c.finish(plan, err); err == nil {
		err = ferr
	}
	finishBracket(err)
	return err
}

// opBracket emits the OpBegin event for this member and returns the
// closure emitting the matching OpEnd with the measured duration. On the
// disabled tracer both halves are no-ops.
func (c *Comm) opBracket(plan *collPlan) func(error) {
	tr := c.state.world.tracer
	if !tr.Enabled() {
		return func(error) {}
	}
	tr.OpBegin(plan.op, plan.id, c.rank, plan.s.TotalCopiedBytes())
	t0 := time.Now()
	return func(err error) {
		tr.OpEnd(plan.op, plan.id, c.rank, time.Since(t0), err)
	}
}

// execute runs this member's share of the plan: consult the fault
// injector, wait for dependencies (failure-aware, watchdogged), perform
// the op, signal completion. op combines the plan's reduction ops.
func (c *Comm) execute(plan *collPlan, op ReduceOp) error {
	wr := c.state.group[c.rank]
	defer func() {
		if int(plan.leavers.Add(1)) == plan.members {
			plan.reap()
		}
	}()
	// When tracing, resolve the member distance matrix once so every copy
	// event carries the distance class of the edge it crossed.
	tr := c.state.world.tracer
	var mx distance.Matrix
	if tr.Enabled() && plan.s.NumRanks <= c.Size() {
		mx = c.distanceMatrix()
	}
	var scratch []byte
	for i := range plan.s.Ops {
		o := &plan.s.Ops[i]
		if o.Rank != c.rank {
			continue
		}
		if err := c.opFault(wr); err != nil {
			return err
		}
		if err := c.awaitDeps(plan, o, wr); err != nil {
			return err
		}
		if o.Bytes > 0 {
			dst := plan.bufs[o.Dst][o.DstOff : o.DstOff+o.Bytes]
			var t0 time.Time
			if tr.Enabled() {
				t0 = time.Now()
			}
			if err := c.perform(plan, o, dst, wr, op, &scratch); err != nil {
				return err
			}
			if tr.Enabled() {
				src, dstRank := plan.s.Buffers[o.Src].Rank, plan.s.Buffers[o.Dst].Rank
				dist := -1
				if mx != nil && src < mx.Size() && dstRank < mx.Size() {
					dist = mx.At(src, dstRank)
				}
				tr.Copy(plan.op, plan.id, c.rank, src, dstRank, int(o.ID), o.Chunk,
					o.Bytes, dist, o.Mode.String(), time.Since(t0))
			}
			if plan.onDone != nil {
				if f := plan.onDone[c.rank]; f != nil {
					f(o)
				}
			}
		}
		close(plan.done[o.ID])
	}
	return nil
}

// perform moves one op's bytes into dst: kernel-assisted ops pull through
// the KNEM data path (with transient retry), local ops copy. A combining
// op folds its source into dst with op; a kernel-assisted one pulls into
// scratch first (KNEM moves bytes, the combine is a user-space pass),
// mirroring how a real KNEM reduction works.
func (c *Comm) perform(plan *collPlan, o *sched.Op, dst []byte, wr int, op ReduceOp, scratch *[]byte) error {
	src := plan.bufs[o.Src][o.SrcOff : o.SrcOff+o.Bytes]
	if o.Kind != sched.OpReduce {
		if o.Mode == sched.ModeKnem {
			return c.knemPull(plan, wr, o, dst)
		}
		copy(dst, src)
		return nil
	}
	if o.Mode == sched.ModeKnem {
		if int64(cap(*scratch)) < o.Bytes {
			*scratch = make([]byte, o.Bytes)
		}
		src = (*scratch)[:o.Bytes]
		if err := c.knemPull(plan, wr, o, src); err != nil {
			return err
		}
	}
	op.Combine(dst, src)
	return nil
}

// opFault consults the injector before one schedule operation. A crash is
// published to the world (waking every blocked rank) and breaks the
// communicator before the error propagates.
func (c *Comm) opFault(wr int) error {
	inj := c.state.world.inj
	if inj == nil {
		return nil
	}
	err := inj.BeforeOp(wr)
	if err != nil && fault.IsCrashed(err) {
		c.state.setBroken()
		c.state.world.MarkFailed(wr)
	}
	return err
}

// awaitDeps blocks until the op's dependencies complete. If any member of
// the communicator fails meanwhile, the collective cannot complete
// reliably, so the wait aborts with a RankFailureError; if the watchdog
// deadline expires, it aborts with a HangError carrying both the
// blocked-rank dump and the schedule's pending-op dump.
func (c *Comm) awaitDeps(plan *collPlan, o *sched.Op, wr int) error {
	for _, d := range o.Deps {
		select {
		case <-plan.done[d]:
			continue
		default:
		}
		if err := c.awaitDep(plan, o, d, wr); err != nil {
			return err
		}
	}
	return nil
}

func (c *Comm) awaitDep(plan *collPlan, o *sched.Op, d sched.OpID, wr int) error {
	w := c.state.world
	desc := fmt.Sprintf("collective op %d (waiting on op %d of rank %d)",
		o.ID, d, c.state.group[plan.s.Ops[d].Rank])
	w.blockEnter(wr, desc)
	defer w.blockExit(wr)
	timeoutC, stop := w.watchdog()
	defer stop()
	for {
		failed, failCh := w.failureWatch()
		if dead := deadIn(failed, c.state.group); len(dead) > 0 {
			c.state.setBroken()
			if perr := w.partitionCheck(wr); perr != nil {
				return perr
			}
			return &RankFailureError{Failed: dead}
		}
		select {
		case <-plan.done[d]:
			return nil
		case <-failCh:
		case <-timeoutC:
			w.tracer.Watchdog(wr, desc)
			return &HangError{Rank: wr, Op: desc, Deadline: w.opDeadline,
				Dump:      w.BlockedDump() + "; schedule: " + plan.s.PendingDump(plan.isDone),
				Suspicion: w.hangSuspicion(wr, []int{c.state.group[plan.s.Ops[d].Rank]})}
		}
	}
}

// knemPull performs one kernel-assisted copy. Transient injected
// failures retry inside transportPull; when integrity verification is
// enabled, the delivered chunk is additionally checked against the
// sender-side CRC32-Castagnoli over (src, dst, chunk, payload) and
// re-pulled with backoff on mismatch — a budget deliberately separate
// from the transient retries (a transient failure means no data arrived;
// a mismatch means wrong data arrived). A peer whose chunks keep failing
// the whole re-pull budget is marked corrupting and treated like a
// failed rank: the survivors agree and rebuild around it.
func (c *Comm) knemPull(plan *collPlan, wr int, o *sched.Op, dst []byte) error {
	w := c.state.world
	cookie, off := plan.cookies[o.Src], o.SrcOff
	srcW := plan.s.Buffers[o.Src].Rank
	if srcW >= 0 && srcW < len(c.state.group) {
		srcW = c.state.group[srcW]
	}
	if w.integ == nil {
		return c.transportPull(plan, wr, srcW, cookie, off, dst)
	}
	sum := func(b []byte) uint32 { return integrity.Sum(srcW, wr, o.Chunk, b) }
	// Sending-side checksum, computed over the clean source region before
	// the (possibly faulty) data path runs.
	want, serr := w.dev.SumRegion(cookie, off, int64(len(dst)), sum)
	if serr != nil {
		// Region already gone (abandonment race): let the plain pull
		// surface the proper transport error.
		return c.transportPull(plan, wr, srcW, cookie, off, dst)
	}
	backoff := w.integ.Backoff()
	attempts := 0
	var got uint32
	for attempt := 0; attempt <= w.integ.Repulls(); attempt++ {
		if attempt > 0 {
			w.integ.Repull()
			w.tracer.IntegrityRepull()
			if !w.sleep(backoff) {
				return fmt.Errorf("mpi: world closed during integrity re-pull backoff (rank %d, chunk %d)", wr, o.Chunk)
			}
			backoff *= 2
		}
		if err := c.transportPull(plan, wr, srcW, cookie, off, dst); err != nil {
			return err
		}
		attempts++
		if got = sum(dst); got == want {
			if attempt > 0 {
				w.integ.Recovered()
			}
			return nil
		}
		w.integ.Mismatch()
		w.tracer.Integrity(plan.op, plan.id, wr, srcW, o.Chunk, attempt, want, got)
	}
	// Persistent corruption: mark the peer, fail it world-wide and break
	// the communicator — the resilient collectives then recover exactly
	// as they do from a crash. Break before publishing the failure so the
	// failure-channel wakeup already observes the broken flag.
	w.integ.MarkCorrupting(srcW)
	w.tracer.IntegrityFailure()
	c.state.setBroken()
	w.MarkFailed(srcW)
	return &CorruptionError{Src: srcW, Dst: wr, Chunk: o.Chunk, Attempts: attempts}
}

// transportPull is the raw kernel-assisted copy with retry-with-backoff
// on injected transient failures. srcW is the world rank the data is
// pulled from: every outcome doubles as reachability evidence for the
// partition detector on the directed edge srcW→wr.
func (c *Comm) transportPull(plan *collPlan, wr, srcW int, cookie knem.Cookie, off int64, dst []byte) error {
	w := c.state.world
	mover := w.mover
	backoff := copyRetryBase
	var err error
	for attempt := 0; attempt < copyRetryAttempts; attempt++ {
		err = mover.CopyFrom(wr, cookie, off, dst)
		if err == nil {
			w.partitionEdge(srcW, wr, true)
			return nil
		}
		if !fault.IsTransient(err) {
			break
		}
		w.tracer.Retry(plan.op, wr, attempt+1, err)
		if !w.sleep(backoff) {
			return fmt.Errorf("mpi: world closed during copy retry backoff (rank %d): %w", wr, err)
		}
		backoff *= 2
	}
	if fault.IsCrashed(err) {
		c.state.setBroken()
		w.MarkFailed(wr)
		return err
	}
	if fault.IsSevered(err) {
		// A refused link, not a dead peer: record the edge, break the
		// communicator, and force a quorum decision. A minority caller
		// gets its PartitionError right here; a majority caller returns
		// the severed error and the resilient ladder shrinks around the
		// (now failed) minority.
		w.partitionEdge(srcW, wr, false)
		c.state.setBroken()
		w.resolvePartition(false)
		if perr := w.partitionCheck(wr); perr != nil {
			return perr
		}
		return fmt.Errorf("mpi: rank %d knem copy severed: %w", wr, err)
	}
	if partition.IsFenced(err) {
		// The quorum decision landed between this caller's entry and its
		// copy: report the caller's own partition verdict, not the raw
		// boundary refusal.
		c.state.setBroken()
		if perr := w.partitionCheck(wr); perr != nil {
			return perr
		}
		return err
	}
	return fmt.Errorf("mpi: rank %d knem copy failed: %w", wr, err)
}

// finish is the completion barrier: no member may return (and reuse its
// buffers) before every member has stopped copying. It is failure-aware —
// a member that crashed mid-collective never arrives, so the survivors get
// a RankFailureError here even when their own copies all succeeded.
//
// Each member deposits its local outcome (nil, or the execution/digest
// error it hit), and the rendezvous resolves them to ONE verdict shared
// by all members: if any member failed, every member returns that error.
// A collective either completed everywhere or failed everywhere — the
// uniformity the resilient retry loops rely on.
func (c *Comm) finish(plan *collPlan, local error) error {
	_, _, err := c.coordinate(local, func(vals []any) (any, error) {
		for _, v := range vals {
			if e, ok := v.(error); ok && e != nil {
				return nil, e
			}
		}
		return nil, nil
	})
	return err
}
