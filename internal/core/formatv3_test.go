package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Format v3 is read-only: these tests decode blocks the retired v3 encoder
// wrote (testdata/v3; see testdata/v3/README.md at the module root for
// how each was made) and rebuild their inputs here.

// readV3Block loads one committed v3 block.
func readV3Block(t testing.TB, name string) []byte {
	t.Helper()
	blk, err := os.ReadFile(filepath.Join("testdata", "v3", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(blk) < 5 || blk[4] != formatVer3 {
		t.Fatalf("%s is not a version-%d block", name, formatVer3)
	}
	return blk
}

// v3Batches are the inputs of the two-batch fixtures.
func v3Batches() [][][]float64 {
	return [][][]float64{crystalBatch(6, 200, 1), liquidBatch(6, 200, 3)}
}

// encodeBatches runs a fresh encoder over batches and returns the blocks.
func encodeBatches(t *testing.T, p Params, batches [][][]float64) [][]byte {
	t.Helper()
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	blks := make([][]byte, len(batches))
	for bi, batch := range batches {
		blk, err := enc.EncodeBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: encode: %v", bi, err)
		}
		blks[bi] = append([]byte(nil), blk...)
	}
	return blks
}

// decodeInOrder decodes blks through one fresh decoder.
func decodeInOrder(t *testing.T, blks [][]byte) [][][]float64 {
	t.Helper()
	dec := NewDecoder(Params{})
	out := make([][][]float64, len(blks))
	for bi, blk := range blks {
		got, err := dec.DecodeBatch(blk)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		out[bi] = got
	}
	return out
}

// hashBatches is the SHA-256 of every decoded value's IEEE-754 bits.
func hashBatches(batches [][][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, batch := range batches {
		for _, row := range batch {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// v3ADPHash pins the decoded output of the ADP fixtures, whose method
// choice the v2 encoder need not repeat. Both shard counts decode to the
// same values.
const v3ADPHash = "37d42ffdd3d970518d6d4c4d2b27868292592e7a3cd015f6d4234cbd40158072"

// TestV3RoundTripMatchesV2 pins the v3 invariant that matters: the wire
// bytes differ but the reconstruction does not. Every fixed-method v3
// fixture must decode to values bit-identical to the v2 encode→decode of
// the same input; ADP fixtures stay within the bound and match their
// pinned hash.
func TestV3RoundTripMatchesV2(t *testing.T) {
	batches := v3Batches()
	for _, m := range []Method{VQ, VQT, MT, ADP} {
		for _, shards := range []int{1, 3} {
			blks3 := make([][]byte, len(batches))
			for bi := range batches {
				blks3[bi] = readV3Block(t, fmt.Sprintf("%v_shards%d_b%d.bin", m, shards, bi))
			}
			got3 := decodeInOrder(t, blks3)
			for bi := range batches {
				if e := maxAbsErr(batches[bi], got3[bi]); e > 1e-3 {
					t.Fatalf("%v shards=%d: batch %d: v3 error %g exceeds bound", m, shards, bi, e)
				}
			}
			if m == ADP {
				if got := hashBatches(got3); got != v3ADPHash {
					t.Fatalf("ADP shards=%d: decoded hash %s, want %s", shards, got, v3ADPHash)
				}
				continue
			}
			got2 := decodeInOrder(t, encodeBatches(t, Params{ErrorBound: 1e-3, Method: m, Shards: shards}, batches))
			for bi := range batches {
				for ti := range got2[bi] {
					for i := range got2[bi][ti] {
						if math.Float64bits(got2[bi][ti][i]) != math.Float64bits(got3[bi][ti][i]) {
							t.Fatalf("%v shards=%d: batch %d snap %d value %d: v2=%v v3=%v",
								m, shards, bi, ti, i, got2[bi][ti][i], got3[bi][ti][i])
						}
					}
				}
			}
		}
	}
}

// TestV3SingleParticleBlock decodes the v3-only always-sharded layout at
// the degenerate sizes where v2 falls back to the version-1 framing.
func TestV3SingleParticleBlock(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		batch := crystalBatch(3, n, int64(n))
		got := decodeInOrder(t, [][]byte{readV3Block(t, fmt.Sprintf("VQ_n%d.bin", n))})[0]
		if e := maxAbsErr(batch, got); e > 1e-3 {
			t.Fatalf("n=%d: error %g exceeds bound", n, e)
		}
		want := decodeInOrder(t, encodeBatches(t, Params{ErrorBound: 1e-3, Method: VQ}, [][][]float64{batch}))[0]
		if hashBatches([][][]float64{got}) != hashBatches([][][]float64{want}) {
			t.Fatalf("n=%d: v3 decode differs from the v2 round trip", n)
		}
	}
}

// TestV3ParamValidation pins the block versions the decoder accepts now
// that the encoder has no format parameter: 1 to 3, each read with its own
// layout. Any other version byte is corrupt, and so is a v3 block
// relabelled as v2.
func TestV3ParamValidation(t *testing.T) {
	blk := readV3Block(t, "VQ_shards3_b0.bin")
	if _, err := NewDecoder(Params{}).DecodeBatch(blk); err != nil {
		t.Fatalf("version 3: %v", err)
	}
	for _, v := range []byte{0, 2, 4, 255} {
		mut := append([]byte(nil), blk...)
		mut[4] = v
		if _, err := NewDecoder(Params{}).DecodeBatch(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version byte %d: err = %v, want ErrCorrupt", v, err)
		}
	}
}

// TestV3CorruptBlocks mirrors TestCorruptBlocks for the v3 layout: every
// truncation and every byte flip must produce an error or a decode, never
// a panic.
func TestV3CorruptBlocks(t *testing.T) {
	blk := readV3Block(t, "ADP_shards3_b0.bin")
	for cut := 0; cut < len(blk); cut += 3 {
		if _, err := NewDecoder(Params{}).DecodeBatch(blk[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	for off := 0; off < len(blk); off += 7 {
		mut := append([]byte(nil), blk...)
		mut[off] ^= 0x20
		NewDecoder(Params{}).DecodeBatch(mut) // must not panic
	}
}
