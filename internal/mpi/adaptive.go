package mpi

import (
	"fmt"

	"distcoll/internal/health"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// This file is the decision and plan-cache step of the collective
// pipeline (DESIGN.md §8). Per collective call, the last-arriving member
// (the one running the coordinate build function, so exactly once per
// collective) decides a {component, tree shape, chunk} — through the
// world's selector for the Adaptive component, as a constant for the
// fixed ones — then fetches the compiled schedule from the world's plan
// cache, compiling through tune.CompileFor only on a miss.

// adecision carries the selector's choice out of schedule to the plan
// builder: the plan_cache trace event is emitted only once the plan id
// exists (after newPlan), so a later op_end with the same plan id carries
// the measured cost of exactly this decision — the correlation the online
// autotuner feeds on.
type adecision struct {
	coll  tune.Collective
	bytes int64
	dec   tune.Decision
	hit   bool
}

// schedule decides and compiles (or fetches) the schedule of one
// collective call. bytes is the full message (bcast/reduce/allreduce) or
// the per-rank block (the others). Adaptive decides through the selector
// for the collectives it has tables for and runs the others on knemcoll;
// a fixed component decides itself, two-phase when the view has a
// clustered base. The *adecision result is non-nil only when the selector
// decided.
func (c *Comm) schedule(d *collDesc, a *collArgs, bytes int64) (*sched.Schedule, *adecision, error) {
	st := c.state
	w := st.world

	st.mu.Lock()
	v := st.viewLocked()
	topo := st.topoHashLocked()
	clustered := st.clusteredLocked() != nil
	st.mu.Unlock()

	comp := a.comp
	if comp == Adaptive && !d.coll.Decidable() {
		comp = KNEMColl
	}
	var dec tune.Decision
	switch comp {
	case Adaptive:
		dec = w.selector.Select(d.coll, v, bytes)
	case KNEMColl, Tuned, MPICH2:
		dec = tune.Decision{Component: comp.String(), TwoPhase: clustered}
	default:
		return nil, nil, fmt.Errorf("mpi: unknown component %v", comp)
	}
	var align int64
	if d.reduce {
		align = a.elemSize()
	}
	key := plancache.Key{
		Topo:    topo,
		Tenant:  w.tenant,
		Coll:    string(d.coll),
		Root:    a.root,
		Size:    bytes,
		Align:   align,
		Variant: dec.CacheKey(),
	}
	s, hit, err := w.plans.Get(key, func() (*sched.Schedule, error) {
		return tune.CompileFor(d.coll, dec, v, a.root, bytes, align)
	})
	if err != nil || comp != Adaptive {
		return s, nil, err
	}
	return s, &adecision{coll: d.coll, bytes: bytes, dec: dec, hit: hit}, nil
}

// topoHashLocked returns the cached fingerprint of the communicator's
// distance topology, computing it on first use. Clustered communicators
// hash the (topology name, per-rank core) placement in O(n) — the cores
// fully determine every pairwise distance — so cluster-scale plan-cache
// keys never need the dense matrix. When a demotion snapshot touches
// this communicator, its hash is folded in, so every health revision
// maps to a distinct plan-cache key space and a stale plan can never be
// served for a re-routed topology. Callers hold st.mu.
func (st *commState) topoHashLocked() uint64 {
	snap := st.healthLocked() // a new revision clears topoHashed
	epoch := st.epochLocked() // so does an advanced partition epoch
	if !st.topoHashed {
		if cv := st.clusteredLocked(); cv != nil {
			st.topoHash = plancache.TopoHashCores(cv.Topology().Name, cv.Cores())
		} else {
			st.topoHash = plancache.TopoHash(st.matrixLocked())
		}
		if snap != nil && !snap.Empty() {
			// Only when the overlay actually wraps this comm's view:
			// snapshots touching no member leave the hash (and the
			// cached plans) alone.
			if _, wrapped := st.viewLocked().(*health.View); wrapped {
				st.topoHash = st.topoHash*1099511628211 ^ snap.Hash()
			}
		}
		if epoch > 0 {
			// Fold the partition epoch in so every quorum decision maps
			// to a distinct plan-cache key space: a plan compiled before
			// the split can never be served to the successor membership.
			st.topoHash = st.topoHash*1099511628211 ^ uint64(epoch)
		}
		st.topoHashed = true
	}
	return st.topoHash
}

// invalidatePlans drops every cached plan compiled for this
// communicator's topology. Called when the topology can no longer be
// trusted or is going away: a member failure broke the communicator (the
// fault-triggered rebuild path — survivors will Shrink to a different
// matrix), Shrink itself, and Free. Safe to call whether or not the
// matrix was ever built; a no-op if no plan was ever cached for it.
func (st *commState) invalidatePlans() {
	st.mu.Lock()
	hashed := st.topoHashed
	topo := st.topoHash
	st.mu.Unlock()
	if hashed {
		st.world.plans.InvalidateTopoOf(topo, st.world.tenant)
	}
}

// Free releases the communicator's cached resources: the distance matrix
// and views held by the communicator state and every compiled plan in
// the world's cache keyed by its topology. Collectives on other
// communicators with a *different* member placement are unaffected (their
// plans hash to different topologies). Using the handle after Free simply
// rebuilds state on demand; Free is an optimization hook, not a
// correctness requirement — call it when a communicator built by Split or
// Shrink goes out of scope in a long-running job.
func (c *Comm) Free() {
	st := c.state
	st.invalidatePlans()
	st.mu.Lock()
	st.matrix = nil
	st.clustered = nil
	st.clusterKnown = false
	st.topoHashed = false
	st.healthSnap = nil
	st.mu.Unlock()
}
