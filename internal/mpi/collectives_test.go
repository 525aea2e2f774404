package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The collective table: every public collective × every component, output
// checked against a plain reference loop, plus one cross-rank argument
// mismatch per collective that must fail identically on every rank. The
// per-collective Test*AllComponents functions are its entry points.

var allComponents = []Component{KNEMColl, Tuned, MPICH2, Adaptive}

// collCase is one row: a collective on one world shape at one size — the
// full message for bcast/reduce/allreduce, the per-rank block otherwise.
type collCase struct {
	coll string
	np   int
	bind string
	root int
	size int
	op   ReduceOp // reduce/allreduce
}

// sumU8 is a byte-wise operator with no declared element size.
var sumU8 = ReduceOp{Name: "sum_u8", Combine: func(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}}

// collCases returns the table rows of one collective: {0 B, 8 B, 64 KiB}
// on a 16-rank cross-socket IG world (plus the 262,208 B reduce, whose
// default pipeline chunk is not a whole number of int64 elements), and the
// larger shapes — bindings, odd sizes, other roots, 24 and 48 ranks — the
// per-collective tests covered before the table.
func collCases(coll string) []collCase {
	var out []collCase
	sizes := []int{0, 8, 64 << 10}
	if coll == "reduce" {
		sizes = append(sizes, 262208)
	}
	for _, size := range sizes {
		out = append(out, collCase{coll: coll, np: 16, bind: "crosssocket", size: size, op: OpSumInt64})
	}
	for i := range out {
		if out[i].rooted() {
			out[i].root = 5
		}
	}
	switch coll {
	case "bcast":
		for _, bind := range []string{"contiguous", "crosssocket", "random"} {
			out = append(out, collCase{coll: coll, np: 48, bind: bind, root: 5, size: 100000})
		}
	case "allgather":
		out = append(out, collCase{coll: coll, np: 24, bind: "random", size: 997})
	case "reduce":
		for _, bind := range []string{"contiguous", "crosssocket"} {
			out = append(out, collCase{coll: coll, np: 48, bind: bind, root: 11, size: 8192, op: sumU8})
		}
	case "allreduce":
		for _, np := range []int{16, 48} { // pow2 exercises recursive doubling
			out = append(out, collCase{coll: coll, np: np, bind: "random", size: 48 * 512, op: OpMaxUint8})
		}
	case "gather", "scatter":
		for _, root := range []int{0, 13} {
			out = append(out, collCase{coll: coll, np: 48, bind: "crosssocket", root: root, size: 777})
		}
	case "alltoall":
		for _, block := range []int{512, 32 << 10} { // hierarchical below the limit, direct above
			out = append(out, collCase{coll: coll, np: 24, bind: "crosssocket", size: block})
		}
	}
	return out
}

// input is rank r's contribution; for alltoall, its block for rank q.
func input(r, q, size int) []byte { return pattern(r*100+q, size) }

// buffers returns rank r's caller buffers for tc at the given root and
// size: send holds the rank's input (the root's message or blocks where
// only the root sends), recv is zeroed where the rank receives.
func (tc collCase) buffers(r, root, size int) (send, recv []byte) {
	n := tc.np
	switch tc.coll {
	case "bcast":
		send = make([]byte, size)
		if r == root {
			send = input(root, 0, size)
		}
	case "allgather":
		send, recv = input(r, 0, size), make([]byte, n*size)
	case "gather":
		send = input(r, 0, size)
		if r == root {
			recv = make([]byte, n*size)
		}
	case "scatter":
		if r == root {
			for q := 0; q < n; q++ {
				send = append(send, input(q, 0, size)...)
			}
		}
		recv = make([]byte, size)
	case "alltoall":
		for q := 0; q < n; q++ {
			send = append(send, input(r, q, size)...)
		}
		recv = make([]byte, n*size)
	case "reduce":
		send = input(r, 0, size)
		if r == root {
			recv = make([]byte, size)
		}
	case "allreduce":
		send, recv = input(r, 0, size), make([]byte, size)
	}
	return send, recv
}

// want is the reference result rank r must hold after tc (in send for
// bcast, in recv otherwise), computed by a plain loop over the inputs;
// nil when the rank receives nothing.
func (tc collCase) want(r int) []byte {
	n, size := tc.np, tc.size
	var out []byte
	switch tc.coll {
	case "bcast":
		return input(tc.root, 0, size)
	case "allgather":
		for s := 0; s < n; s++ {
			out = append(out, input(s, 0, size)...)
		}
	case "gather":
		if r != tc.root {
			return nil
		}
		for s := 0; s < n; s++ {
			out = append(out, input(s, 0, size)...)
		}
	case "scatter":
		return input(r, 0, size)
	case "alltoall":
		for s := 0; s < n; s++ {
			out = append(out, input(s, r, size)...)
		}
	case "reduce", "allreduce":
		if tc.coll == "reduce" && r != tc.root {
			return nil
		}
		out = input(0, 0, size)
		for s := 1; s < n; s++ {
			tc.op.Combine(out, input(s, 0, size))
		}
	}
	if out == nil {
		out = []byte{}
	}
	return out
}

// call invokes tc's collective on c.
func (tc collCase) call(c *Comm, send, recv []byte, root int, comp Component) error {
	switch tc.coll {
	case "bcast":
		return c.Bcast(send, root, comp)
	case "allgather":
		return c.Allgather(send, recv, comp)
	case "gather":
		return c.Gather(send, recv, root, comp)
	case "scatter":
		return c.Scatter(send, recv, root, comp)
	case "alltoall":
		return c.Alltoall(send, recv, comp)
	case "reduce":
		return c.Reduce(send, recv, root, tc.op, comp)
	case "allreduce":
		return c.Allreduce(send, recv, tc.op, comp)
	}
	return fmt.Errorf("unknown collective %q", tc.coll)
}

func (tc collCase) rooted() bool {
	switch tc.coll {
	case "bcast", "gather", "scatter", "reduce":
		return true
	}
	return false
}

// runCollectiveTable runs every row of the named collectives on every
// component, then each collective's argument mismatch.
func runCollectiveTable(t *testing.T, colls ...string) {
	worlds := map[string]*World{}
	world := func(bind string, np int) *World {
		key := fmt.Sprintf("%s/%d", bind, np)
		if worlds[key] == nil {
			worlds[key] = igWorld(t, bind, np)
		}
		return worlds[key]
	}
	for _, coll := range colls {
		for _, tc := range collCases(coll) {
			w := world(tc.bind, tc.np)
			for _, comp := range allComponents {
				name := fmt.Sprintf("%s/%v/%s%d-root%d/%dB", tc.coll, comp, tc.bind, tc.np, tc.root, tc.size)
				t.Run(name, func(t *testing.T) {
					err := w.Run(func(p *Proc) error {
						r := p.Rank()
						send, recv := tc.buffers(r, tc.root, tc.size)
						if err := tc.call(p.Comm(), send, recv, tc.root, comp); err != nil {
							return err
						}
						got := recv
						if tc.coll == "bcast" {
							got = send
						}
						if want := tc.want(r); want != nil && !bytes.Equal(got, want) {
							return fmt.Errorf("rank %d: wrong result (first difference at byte %d)", r, firstDiff(got, want))
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		tc := collCase{coll: coll, np: 16, bind: "crosssocket", size: 64, op: OpSumInt64}
		if tc.rooted() {
			tc.root = 5
		}
		for _, comp := range allComponents {
			t.Run(fmt.Sprintf("%s/%v/mismatch", coll, comp), func(t *testing.T) {
				checkUniformMismatch(t, world(tc.bind, tc.np), tc, comp)
			})
		}
	}
}

// checkUniformMismatch has rank 3 pass a different root (rooted
// collectives) or buffer size (the others): every rank must fail, with
// the same error.
func checkUniformMismatch(t *testing.T, w *World, tc collCase, comp Component) {
	t.Helper()
	errs := make([]error, tc.np)
	err := w.Run(func(p *Proc) error {
		r := p.Rank()
		root, size := tc.root, tc.size
		if r == 3 {
			if tc.rooted() {
				root++
			} else {
				size += 8
			}
		}
		send, recv := tc.buffers(r, root, size)
		errs[r] = tc.call(p.Comm(), send, recv, root, comp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e == nil {
			t.Fatalf("rank %d: mismatched arguments accepted", r)
		}
		if e.Error() != errs[0].Error() {
			t.Fatalf("rank %d error %q differs from rank 0's %q", r, e, errs[0])
		}
	}
	if !strings.Contains(errs[0].Error(), "mismatch") {
		t.Fatalf("error %q does not report the mismatch", errs[0])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestBcastAllComponents(t *testing.T)         { runCollectiveTable(t, "bcast") }
func TestAllgatherAllComponents(t *testing.T)     { runCollectiveTable(t, "allgather") }
func TestGatherScatterAllComponents(t *testing.T) { runCollectiveTable(t, "gather", "scatter") }
func TestAlltoallAllComponents(t *testing.T)      { runCollectiveTable(t, "alltoall") }
func TestReduceAllComponents(t *testing.T)        { runCollectiveTable(t, "reduce") }
func TestAllreduceAllComponents(t *testing.T)     { runCollectiveTable(t, "allreduce") }
