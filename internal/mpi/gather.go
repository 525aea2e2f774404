package mpi

import (
	"fmt"

	"distcoll/internal/tune"
)

// Gather collects every member's send block into the root's recv buffer
// (Size()·len(send) bytes) in communicator-rank order; recv is ignored on
// other ranks.
func (c *Comm) Gather(send, recv []byte, root int, comp Component) error {
	return c.collective(&gatherColl, collArgs{send: send, recv: recv, size: len(send), root: root, comp: comp})
}

var gatherColl = collDesc{
	coll:   tune.CollGather,
	rooted: true,
	check: func(args []collArgs) (int64, error) {
		return rootBlock("gather", args, args[args[0].root].recv)
	},
}

// Scatter distributes the root's send buffer (Size()·len(recv) bytes, in
// communicator-rank order) so every member's recv buffer holds its block;
// send is ignored on other ranks.
func (c *Comm) Scatter(send, recv []byte, root int, comp Component) error {
	return c.collective(&scatterColl, collArgs{send: send, recv: recv, size: len(recv), root: root, comp: comp})
}

var scatterColl = collDesc{
	coll:   tune.CollScatter,
	rooted: true,
	check: func(args []collArgs) (int64, error) {
		return rootBlock("scatter", args, args[args[0].root].send)
	},
}

// rootBlock checks the root's Size()·block buffer of a gather or scatter
// and returns the block.
func rootBlock(what string, args []collArgs, big []byte) (int64, error) {
	block := args[0].size
	if block > 0 && len(big) != len(args)*block {
		return 0, fmt.Errorf("mpi: %s root buffer is %d bytes, want %d", what, len(big), len(args)*block)
	}
	return int64(block), nil
}

// AlltoallHierarchicalLimit is the block size below which the
// distance-aware Alltoall aggregates at machine leaders.
const AlltoallHierarchicalLimit = tune.AlltoallHierarchicalLimit

// Alltoall exchanges one block with every member: send and recv are
// Size()·block bytes; recv[a·block:] ends up holding rank a's block for
// the caller.
func (c *Comm) Alltoall(send, recv []byte, comp Component) error {
	return c.collective(&alltoallColl, collArgs{send: send, recv: recv, size: len(send), comp: comp})
}

var alltoallColl = collDesc{
	coll: tune.CollAlltoall,
	check: func(args []collArgs) (int64, error) {
		n := len(args)
		for _, a := range args {
			if len(a.recv) != a.size {
				return 0, fmt.Errorf("mpi: alltoall recv buffer is %d bytes, want %d", len(a.recv), a.size)
			}
		}
		if args[0].size%n != 0 {
			return 0, fmt.Errorf("mpi: alltoall buffer of %d bytes is not a multiple of %d ranks", args[0].size, n)
		}
		return int64(args[0].size / n), nil
	},
}
