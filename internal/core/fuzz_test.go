package core

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeBatch hammers the block decoder with mutated inputs: it must
// return an error or a valid batch, never panic or hang.
func FuzzDecodeBatch(f *testing.F) {
	// Seed with valid blocks from each method.
	for _, m := range []Method{VQ, VQT, MT} {
		enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: m})
		if err != nil {
			f.Fatal(err)
		}
		blk, err := enc.EncodeBatch(crystalBatch(4, 30, int64(m)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blk)
	}
	f.Add([]byte{})
	f.Add([]byte("MDZB"))
	f.Fuzz(func(t *testing.T, blk []byte) {
		dec := NewDecoder(Params{})
		out, err := dec.DecodeBatch(blk)
		if err != nil {
			return
		}
		for _, snap := range out {
			for _, v := range snap {
				_ = v
			}
		}
	})
}

// FuzzRoundTrip checks the end-to-end invariant on fuzzer-shaped inputs:
// whatever bytes the fuzzer proposes are reinterpreted as a small float
// batch, and the round trip must hold the bound.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(0))
	f.Add([]byte{255, 0, 127, 4}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, mRaw uint8) {
		if len(raw) == 0 {
			return
		}
		m := Method(mRaw % 4)
		n := len(raw)
		if n > 64 {
			n = 64
		}
		batch := make([][]float64, 3)
		for ti := range batch {
			snap := make([]float64, n)
			for i := 0; i < n; i++ {
				snap[i] = float64(int(raw[i])-128) * math.Pow(2, float64(ti-1))
			}
			batch[ti] = snap
		}
		const eb = 1e-2
		enc, err := NewEncoder(Params{ErrorBound: eb, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := enc.EncodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(Params{})
		out, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range batch {
			for i := range batch[ti] {
				if d := math.Abs(batch[ti][i] - out[ti][i]); d > eb {
					t.Fatalf("method %v: error %v at (%d,%d)", m, d, ti, i)
				}
			}
		}
	})
}

// TestForgedGeometryDefersAllocation: a single-shard block whose header
// claims a huge geometry over a small payload fails with ErrCorrupt on an
// unbudgeted decoder without materializing the claimed output matrix —
// repeated decodes of such blocks (as a fuzz corpus replays them) must not
// touch gigabytes of memory.
func TestForgedGeometryDefersAllocation(t *testing.T) {
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: VQ, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := enc.EncodeBatch(crystalBatch(4, 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	if blk[4] != formatVer1 {
		t.Fatalf("block version %d, want %d", blk[4], formatVer1)
	}
	// magic, version, method, sequence, firstPred, eb; then uvarint scale,
	// bs and n, which the forgery replaces with a 2^32-value claim.
	p := 16
	forged := append([]byte(nil), blk[:p]...)
	scale, k := binary.Uvarint(blk[p:])
	p += k
	for i := 0; i < 2; i++ {
		_, k = binary.Uvarint(blk[p:])
		p += k
	}
	forged = binary.AppendUvarint(forged, scale)
	forged = binary.AppendUvarint(forged, 1<<16)
	forged = binary.AppendUvarint(forged, 1<<16)
	forged = append(forged, blk[p:]...)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 3; i++ {
		if _, err := NewDecoder(Params{}).DecodeBatch(forged); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged geometry: err = %v, want ErrCorrupt", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<20 {
		t.Fatalf("three rejected decodes allocated %d MiB", grew>>20)
	}
}
