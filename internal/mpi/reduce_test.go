package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestAllreduceFloat64Sum(t *testing.T) {
	w := igWorld(t, "crosssocket", 24)
	const elems = 1000
	err := w.Run(func(p *Proc) error {
		send := make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], math.Float64bits(float64(p.Rank())+float64(i)/1000))
		}
		recv := make([]byte, elems*8)
		if err := p.Comm().Allreduce(send, recv, OpSumFloat64, KNEMColl); err != nil {
			return err
		}
		// Sum over ranks 0..23 of (r + i/1000) = 276 + 24·i/1000.
		for i := 0; i < elems; i++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(recv[i*8:]))
			want := 276 + 24*float64(i)/1000
			if math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("rank %d elem %d: %v != %v", p.Rank(), i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceInt64AndBXOR(t *testing.T) {
	w := igWorld(t, "contiguous", 8)
	err := w.Run(func(p *Proc) error {
		send := make([]byte, 16)
		binary.LittleEndian.PutUint64(send, uint64(int64(p.Rank()+1)))
		binary.LittleEndian.PutUint64(send[8:], uint64(int64(-p.Rank())))
		recv := make([]byte, 16)
		if err := p.Comm().Allreduce(send, recv, OpSumInt64, Tuned); err != nil {
			return err
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != 36 {
			return fmt.Errorf("sum = %d, want 36", got)
		}
		if got := int64(binary.LittleEndian.Uint64(recv[8:])); got != -28 {
			return fmt.Errorf("negative sum = %d, want -28", got)
		}
		// BXOR of identical values over an even count is zero.
		x := []byte{0xAA, 0x55}
		xr := make([]byte, 2)
		if err := p.Comm().Allreduce(x, xr, OpBXOR, KNEMColl); err != nil {
			return err
		}
		if xr[0] != 0 || xr[1] != 0 {
			return fmt.Errorf("bxor = %v, want zeros", xr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		// Root's recv must match send size.
		var recv []byte
		if p.Rank() == 0 {
			recv = make([]byte, 3)
		}
		if err := p.Comm().Reduce(make([]byte, 64), recv, 0, OpBXOR, KNEMColl); err == nil {
			return fmt.Errorf("undersized root recv accepted")
		}
		// Mismatched operator names across ranks.
		op := OpBXOR
		if p.Rank() == 2 {
			op = OpMaxUint8
		}
		r2 := make([]byte, 64)
		if err := p.Comm().Allreduce(make([]byte, 64), r2, op, KNEMColl); err == nil {
			return fmt.Errorf("mismatched operator accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOnSubcommunicator(t *testing.T) {
	w := igWorld(t, "crosssocket", 48)
	err := w.Run(func(p *Proc) error {
		sub, err := p.Comm().Split(p.Rank()%3, p.Rank())
		if err != nil {
			return err
		}
		send := []byte{byte(p.Rank())}
		recv := make([]byte, 1)
		if err := sub.Allreduce(send, recv, OpMaxUint8, KNEMColl); err != nil {
			return err
		}
		// Max world rank in residue class (rank mod 3): 45, 46 or 47.
		want := byte(45 + p.Rank()%3)
		if recv[0] != want {
			return fmt.Errorf("rank %d: max = %d, want %d", p.Rank(), recv[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteReduce(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		if err := p.Comm().Reduce(nil, nil, 0, OpBXOR, KNEMColl); err != nil {
			return err
		}
		return p.Comm().Allreduce(nil, nil, OpBXOR, Tuned)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		var recv []byte
		if p.Rank() == 0 {
			recv = make([]byte, 7) // wrong size
		}
		if err := p.Comm().Gather(make([]byte, 64), recv, 0, KNEMColl); err == nil {
			return fmt.Errorf("undersized gather root buffer accepted")
		}
		if err := p.Comm().Gather(nil, nil, 0, Tuned); err != nil {
			return fmt.Errorf("zero-byte gather failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		if err := p.Comm().Alltoall(make([]byte, 10), make([]byte, 10), KNEMColl); err == nil {
			return fmt.Errorf("non-multiple buffer accepted")
		}
		return p.Comm().Alltoall(nil, nil, Tuned)
	})
	if err != nil {
		t.Fatal(err)
	}
}
