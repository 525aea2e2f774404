package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"distcoll/internal/tune"
)

// ReduceOp is a reduction operator over byte vectors. Operators must be
// associative and commutative (the runtime makes no ordering guarantees
// beyond that, like MPI_SUM on built-in types).
type ReduceOp struct {
	Name string
	// ElemSize is the operator's element size in bytes (≤1 means
	// byte-wise). Buffers must be a multiple of it; ring block splits are
	// aligned to it.
	ElemSize int64
	// Combine folds src into dst element-wise: dst = op(dst, src). The
	// slices have equal length, a multiple of the operator's element size.
	Combine func(dst, src []byte)
}

// Built-in operators.
var (
	// OpSumFloat64 sums vectors of little-endian float64s.
	OpSumFloat64 = ReduceOp{Name: "sum_f64", ElemSize: 8, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
		}
	}}
	// OpSumInt64 sums vectors of little-endian int64s (wrapping).
	OpSumInt64 = ReduceOp{Name: "sum_i64", ElemSize: 8, Combine: func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(a+b))
		}
	}}
	// OpMaxUint8 takes the element-wise byte maximum.
	OpMaxUint8 = ReduceOp{Name: "max_u8", Combine: func(dst, src []byte) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}}
	// OpBXOR xors byte vectors.
	OpBXOR = ReduceOp{Name: "bxor", Combine: func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}}
)

// Reduce combines every member's send buffer with op; the result lands in
// the root's recv buffer (nil elsewhere). This is the paper's §VI
// future-work extension: the distance-aware component reduces up the
// Algorithm-1 tree, so partial results cross each slow link exactly once.
// Buffer lengths must be a multiple of the operator's element size.
func (c *Comm) Reduce(send, recv []byte, root int, op ReduceOp, comp Component) error {
	return c.collective(&reduceColl, collArgs{send: send, recv: recv, size: len(send), root: root, comp: comp, op: op})
}

var reduceColl = collDesc{
	coll:   tune.CollReduce,
	rooted: true,
	reduce: true,
	check: func(args []collArgs) (int64, error) {
		rt := &args[args[0].root]
		if len(rt.recv) != rt.size {
			return 0, fmt.Errorf("mpi: reduce root recv buffer is %d bytes, want %d", len(rt.recv), rt.size)
		}
		return int64(rt.size), nil
	},
}

// Allreduce combines every member's send buffer with op and delivers the
// result to every member's recv buffer. Buffer lengths must be a multiple
// of the operator's element size.
func (c *Comm) Allreduce(send, recv []byte, op ReduceOp, comp Component) error {
	return c.collective(&allreduceColl, collArgs{send: send, recv: recv, size: len(send), comp: comp, op: op})
}

var allreduceColl = collDesc{
	coll:   tune.CollAllreduce,
	reduce: true,
	check: func(args []collArgs) (int64, error) {
		for _, a := range args {
			if len(a.recv) != a.size {
				return 0, fmt.Errorf("mpi: allreduce recv buffer is %d bytes, want %d", len(a.recv), a.size)
			}
		}
		return int64(args[0].size), nil
	},
}
