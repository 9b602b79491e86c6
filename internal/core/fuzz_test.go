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

// TestForgedGeometryDefersAllocation: a block whose header claims a huge
// geometry over a small payload fails with ErrCorrupt on an unbudgeted
// decoder without materializing the claimed output — repeated decodes of
// such blocks (as a fuzz corpus replays them) must not touch gigabytes of
// memory. It covers every block version: a single-shard v1 block, a
// sharded v2 block and a v3 fixture, each claiming about 2^32 values.
func TestForgedGeometryDefersAllocation(t *testing.T) {
	encode := func(shards int) []byte {
		enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: VQ, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := enc.EncodeBatch(crystalBatch(4, 30, 1))
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	for _, tc := range []struct {
		name string
		blk  []byte
		ver  byte
	}{
		{"v1", encode(1), formatVer1},
		{"v2 sharded", encode(3), formatVer2},
		{"v3 fixture", readV3Block(t, "VQ_shards3_b0.bin"), formatVer3},
	} {
		if tc.blk[4] != tc.ver {
			t.Fatalf("%s: block version %d, want %d", tc.name, tc.blk[4], tc.ver)
		}
		// magic, version, method, sequence, firstPred, eb; then uvarint
		// scale, bs and n. The forgery raises bs to claim 2^32 values; n
		// stays, so sharded blocks keep a consistent shard table.
		p := 16
		forged := append([]byte(nil), tc.blk[:p]...)
		scale, k := binary.Uvarint(tc.blk[p:])
		p += k
		_, k = binary.Uvarint(tc.blk[p:])
		p += k
		n, k := binary.Uvarint(tc.blk[p:])
		p += k
		forged = binary.AppendUvarint(forged, scale)
		forged = binary.AppendUvarint(forged, (1<<32)/n)
		forged = binary.AppendUvarint(forged, n)
		forged = append(forged, tc.blk[p:]...)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < 3; i++ {
			if _, err := NewDecoder(Params{}).DecodeBatch(forged); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: forged geometry: err = %v, want ErrCorrupt", tc.name, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<20 {
			t.Fatalf("%s: three rejected decodes allocated %d MiB", tc.name, grew>>20)
		}
	}

	// DecodeSnapshot materializes one row of n values: a v1 block (whose
	// single section carries no particle count to contradict n) claiming
	// 2^27 particles must fail the same way.
	blk := encode(1)
	p := 16
	forged := append([]byte(nil), blk[:p]...)
	for i := 0; i < 2; i++ { // scale, bs
		_, k := binary.Uvarint(blk[p:])
		forged = append(forged, blk[p:p+k]...)
		p += k
	}
	_, k := binary.Uvarint(blk[p:])
	forged = binary.AppendUvarint(forged, 1<<27)
	forged = append(forged, blk[p+k:]...)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := NewDecoder(Params{}).DecodeSnapshot(forged, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged snapshot geometry: err = %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a rejected DecodeSnapshot allocated %d MiB", grew>>20)
	}
}
