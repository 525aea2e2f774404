package mpi

import (
	"context"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/machine"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// This file is the delta-repair half of incremental recovery (DESIGN.md
// §11). After a failed collective is agreed and shrunk, the survivors
// deposit their progress ledgers at the coordinate rendezvous (the "small
// metadata allgather"), and the last arriver — exactly once,
// so the decision is uniform by construction — merges them, compiles both
// the full-restart schedule and a distance-aware repair schedule over
// only the missing (rank, chunk) pairs, and picks the cheaper of the two
// under the des/machine cost model. Members then execute the shared plan
// through the ordinary verified execution path: per-hop checksums,
// end-to-end digests and the finish outcome vote all apply to repair
// traffic exactly as they do to first-run traffic.

// Recovery decision modes, as traced by Tracer.Recovery.
const (
	recoverRepair  = "repair"
	recoverRestart = "restart"
	recoverRetry   = "retry"
)

// deltaOutcome is the shared result of one recovery rendezvous.
type deltaOutcome struct {
	plan *collPlan
	mode string // recoverRepair | recoverRestart
}

// delta re-runs a failed collective on the (typically shrunken)
// communicator incrementally: the rendezvous takes the collective's own
// argument check, compiles the full-restart schedule through the ordinary
// decision and plan-cache step, lets the descriptor's repair hook choose
// between it and a repair over only the missing pieces, and binds and
// seals the winner like a first run. Repair schedules copy at true payload
// offsets by construction, so their ledger marks are always exact; restart
// marks apply under the same component rule as first runs. Returns the
// mode the rendezvous chose, which is identical on every member.
func (c *Comm) delta(ctx context.Context, d *collDesc, a collArgs) (string, error) {
	_, result, err := c.coordinateCtx(ctx, a, func(vals []any) (any, error) {
		args, bytes, err := d.agree(vals)
		if err != nil {
			return nil, err
		}
		if bytes == 0 {
			return &deltaOutcome{plan: c.state.emptyPlan(string(d.coll), len(args)), mode: recoverRestart}, nil
		}
		full, _, err := c.schedule(d, &args[0], bytes)
		if err != nil {
			return nil, err
		}
		s, mode, missing := d.repair(c, args, full, bytes)
		opName := string(d.coll)
		if mode == recoverRepair {
			opName += ".repair"
		}
		plan, err := c.state.newPlan(opName, s, args)
		if err != nil {
			return nil, err
		}
		d.seal(c, plan, args, mode == recoverRepair || args[0].comp == KNEMColl)
		moved := s.TotalCopiedBytes()
		fullBytes := full.TotalCopiedBytes()
		var saved int64
		if mode == recoverRepair {
			saved = fullBytes - moved
		}
		c.state.world.tracer.Recovery(string(d.coll), mode, missing, moved, fullBytes, saved)
		return &deltaOutcome{plan: plan, mode: mode}, nil
	})
	if err != nil {
		return "", err
	}
	out := result.(*deltaOutcome)
	return out.mode, c.runPlan(out.plan, d, &a)
}

// chooseBcastRecovery picks the broadcast recovery schedule from the
// survivors' chunk ledgers: delta repair — missing chunks pulled from the
// minimum-distance survivors that verifiably hold them — when the
// survivors hold anything worth keeping AND the machine model prices the
// repair below a fresh run; the full restart schedule otherwise. missing
// reports the missing (rank, chunk) pairs the merged ledgers imply.
func (c *Comm) chooseBcastRecovery(args []collArgs, full *sched.Schedule, size int64) (*sched.Schedule, string, int) {
	r := args[0].root
	holds := make([]*recovery.IntervalSet, len(args))
	var held int64
	for i := range args {
		holds[i] = recovery.NewSet(args[i].chunks.Spans())
		if i != r {
			held += holds[i].Total()
		}
	}
	// The root's caller buffer is the payload source by definition.
	holds[r].Add(0, size)
	chunks := sched.Chunks(size, core.BroadcastChunk(size, 2))
	missing := 0
	for r := range holds {
		for _, ch := range chunks {
			if !holds[r].Contains(ch[0], ch[1]) {
				missing++
			}
		}
	}
	if held == 0 {
		// Empty ledger: repair would degenerate to a full re-broadcast over
		// a greedier tree. Restart on the purpose-built tree instead.
		return full, recoverRestart, missing
	}
	repair, err := core.CompileBcastRepair(c.distanceMatrix(), size, 0, holds)
	if err != nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart, missing
	}
	return repair, recoverRepair, missing
}

// chooseAllgatherRecovery is chooseBcastRecovery for the allgather:
// survivors keep the segments they already hold — including segments
// that reached them via a now-dead forwarder — and only the missing
// (rank, origin) pairs move, each from its minimum-distance surviving
// holder. A segment ledger lists the WORLD-rank origins whose block the
// member's receive buffer holds at the current layout (the resilient
// wrapper compacts the buffer after every shrink to keep that invariant).
func (c *Comm) chooseAllgatherRecovery(args []collArgs, full *sched.Schedule, block int64) (*sched.Schedule, string, int) {
	n := len(args)
	idxOf := make(map[int]int, n)
	for i, wr := range c.state.group {
		idxOf[wr] = i
	}
	holds := make([][]bool, n)
	heldCount := 0
	for v := range args {
		holds[v] = make([]bool, n)
		for _, wr := range args[v].segs.Origins() {
			if o, ok := idxOf[wr]; ok {
				holds[v][o] = true
				heldCount++
			}
		}
	}
	missing := n*n - heldCount
	if heldCount == 0 {
		return full, recoverRestart, missing
	}
	repair, err := core.CompileAllgatherRepair(c.distanceMatrix(), block, holds)
	if err != nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart, missing
	}
	return repair, recoverRepair, missing
}

// repairCheaper is the repair-vs-restart cost cutoff: both schedules are
// priced on the des/machine model over a binding restricted to the
// survivors' cores, and repair wins only if its simulated makespan is
// strictly smaller. When the machine has no calibrated parameters (or the
// restricted simulation fails), total copied bytes decide instead — the
// zero-fill-time approximation of the same comparison.
func (c *Comm) repairCheaper(repair, full *sched.Schedule) bool {
	w := c.state.world
	if params, err := machine.ParamsFor(w.Topology().Name); err == nil {
		cores := make([]int, len(c.state.group))
		for i, wr := range c.state.group {
			cores[i] = w.bind.CoreOf(wr)
		}
		if bind, berr := binding.New(w.Topology(), "recovery", cores); berr == nil {
			rres, rerr := machine.Simulate(bind, params, repair)
			fres, ferr := machine.Simulate(bind, params, full)
			if rerr == nil && ferr == nil {
				return rres.Makespan < fres.Makespan
			}
		}
	}
	return repair.TotalCopiedBytes() < full.TotalCopiedBytes()
}

// compactRecv re-packs an allgather receive buffer after a shrink: the
// surviving origins' blocks move from their old layout positions to the
// new (always ≤) ones, restoring the ledger's position invariant before
// the next attempt. Only blocks the ledger actually holds move; dead
// origins' blocks are simply left behind and overwritten.
func compactRecv(recv []byte, block int64, oldGroup, newGroup []int, led *recovery.SegLedger) {
	if block <= 0 {
		return
	}
	oldIdx := make(map[int]int, len(oldGroup))
	for i, wr := range oldGroup {
		oldIdx[wr] = i
	}
	for ni, wr := range newGroup {
		oi, ok := oldIdx[wr]
		if !ok || oi == ni || !led.Holds(wr) {
			continue
		}
		copy(recv[int64(ni)*block:int64(ni+1)*block], recv[int64(oi)*block:int64(oi+1)*block])
	}
}
