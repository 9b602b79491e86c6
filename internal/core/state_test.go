package core

import (
	"bytes"
	"errors"
	"testing"
)

// TestEncoderStateRoundTrip checks the ExportState contract: a fresh
// encoder importing state exported after batch b emits byte-identical
// blocks for every following batch, per method and shard count.
func TestEncoderStateRoundTrip(t *testing.T) {
	batches := [][][]float64{
		crystalBatch(6, 200, 1),
		crystalBatch(6, 200, 2),
		crystalBatch(6, 200, 3),
		crystalBatch(6, 200, 4),
	}
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		for _, shards := range []int{1, 4} {
			p := Params{ErrorBound: 1e-3, Method: m, Shards: shards}
			full, err := NewEncoder(p)
			if err != nil {
				t.Fatal(err)
			}
			// Encode the first two batches on the original encoder.
			for _, b := range batches[:2] {
				if _, err := full.EncodeBatch(b); err != nil {
					t.Fatalf("%v/%d: encode: %v", m, shards, err)
				}
			}
			st := full.ExportState()
			if st.Batch != 2 || st.Ref == nil {
				t.Fatalf("%v/%d: exported state batch=%d ref=%v", m, shards, st.Batch, st.Ref != nil)
			}

			resumed, err := NewEncoder(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.ImportState(st); err != nil {
				t.Fatalf("%v/%d: import: %v", m, shards, err)
			}
			for bi, b := range batches[2:] {
				want, err := full.EncodeBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := resumed.EncodeBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%v/%d: batch %d diverged after state round-trip", m, shards, bi+2)
				}
			}
		}
	}
}

// TestDecoderRefReseed checks that SetRef lets a fresh decoder pick up
// mid-stream exactly where a continuous decoder would be.
func TestDecoderRefReseed(t *testing.T) {
	batches := [][][]float64{
		liquidBatch(5, 150, 7),
		liquidBatch(5, 150, 8),
		liquidBatch(5, 150, 9),
	}
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	var blks [][]byte
	for _, b := range batches {
		blk, err := enc.EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
	}

	cont := NewDecoder(Params{})
	var wantLast [][]float64
	for i, blk := range blks {
		out, err := cont.DecodeBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(blks)-1 {
			wantLast = out
		}
	}

	// A fresh decoder must refuse the MT block without a reference…
	fresh := NewDecoder(Params{})
	if _, err := fresh.DecodeBatch(blks[2]); !errors.Is(err, ErrOrder) {
		t.Fatalf("mid-stream decode without ref: err=%v, want ErrOrder", err)
	}
	// …and decode it bit-identically once reseeded.
	fresh.SetRef(cont.Ref())
	got, err := fresh.DecodeBatch(blks[2])
	if err != nil {
		t.Fatal(err)
	}
	for ti := range wantLast {
		for i := range wantLast[ti] {
			if wantLast[ti][i] != got[ti][i] {
				t.Fatalf("reseeded decode diverged at t=%d i=%d", ti, i)
			}
		}
	}
}

// TestDecoderHoldRef checks the deferred-reseed contract: a held decoder
// decodes blocks that need no reference without adopting one of their
// snapshots, refuses a block that does (UsesRef) with ErrOrder, and
// decodes it bit-identically once SetRef supplies the reference.
func TestDecoderHoldRef(t *testing.T) {
	var blks [][]byte
	for i, m := range []Method{MT, VQT, MT} {
		enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		// Every block is its run's second, so the MT ones predict from the
		// reference.
		if _, err := enc.EncodeBatch(liquidBatch(5, 150, 7)); err != nil {
			t.Fatal(err)
		}
		blk, err := enc.EncodeBatch(liquidBatch(5, 150, int64(8+i)))
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
	}
	if !UsesRef(blks[0]) || UsesRef(blks[1]) {
		t.Fatalf("UsesRef: MT block %v, VQT block %v", UsesRef(blks[0]), UsesRef(blks[1]))
	}

	held := NewDecoder(Params{})
	held.HoldRef()
	if _, err := held.DecodeBatch(blks[1]); err != nil {
		t.Fatal(err)
	}
	if held.Ref() != nil {
		t.Fatal("held decoder adopted a mid-stream snapshot as its reference")
	}
	if _, err := held.DecodeBatch(blks[2]); !errors.Is(err, ErrOrder) {
		t.Fatalf("held decode of an MT block: err=%v, want ErrOrder", err)
	}

	ref := NewDecoder(Params{})
	if _, err := ref.DecodeBatch(encodeFirst(t, liquidBatch(5, 150, 7))); err != nil {
		t.Fatal(err)
	}
	want, err := ref.DecodeBatch(blks[2])
	if err != nil {
		t.Fatal(err)
	}
	held.SetRef(ref.Ref())
	got, err := held.DecodeBatch(blks[2])
	if err != nil {
		t.Fatal(err)
	}
	for ti := range want {
		for i := range want[ti] {
			if want[ti][i] != got[ti][i] {
				t.Fatalf("decode after SetRef diverged at t=%d i=%d", ti, i)
			}
		}
	}
}

// encodeFirst encodes batch as the first block of a fresh MT run.
func encodeFirst(t *testing.T, batch [][]float64) []byte {
	t.Helper()
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := enc.EncodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestImportStateRejects covers the guard rails around ImportState.
func TestImportStateRejects(t *testing.T) {
	p := Params{ErrorBound: 1e-3, Method: VQT}
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeBatch(crystalBatch(4, 100, 1)); err != nil {
		t.Fatal(err)
	}
	st := enc.ExportState()

	if err := enc.ImportState(st); !errors.Is(err, ErrState) {
		t.Errorf("import into used encoder: err=%v, want ErrState", err)
	}

	other, _ := NewEncoder(Params{ErrorBound: 5e-3, Method: VQT})
	if err := other.ImportState(st); !errors.Is(err, ErrState) {
		t.Errorf("import with mismatched bound: err=%v, want ErrState", err)
	}

	bad := st
	bad.LevelDistance = 0
	dst, _ := NewEncoder(p)
	if err := dst.ImportState(bad); !errors.Is(err, ErrState) {
		t.Errorf("import with broken level model: err=%v, want ErrState", err)
	}
}

// TestBlockInfo checks header-only inspection of a block.
func TestBlockInfo(t *testing.T) {
	enc, err := NewEncoder(Params{ErrorBound: 1e-3, Method: VQ, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := enc.EncodeBatch(crystalBatch(9, 120, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, bs, n, err := BlockInfo(blk)
	if err != nil {
		t.Fatal(err)
	}
	if m != VQ || bs != 9 || n != 120 {
		t.Errorf("BlockInfo = (%v, %d, %d), want (VQ, 9, 120)", m, bs, n)
	}
	if _, _, _, err := BlockInfo([]byte("junk")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BlockInfo on junk: err=%v, want ErrCorrupt", err)
	}
}
