package lossless

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/huffman"
)

// lzV3Stream builds the format-v3 LZ stream of src: the v2 parse of src
// with both Huffman sections re-framed in the dual-lane layout of
// DESIGN.md §4.6,
//
//	uvarint origSize || dual(literals) || dual(seq)
//
// Nothing in the module writes v3 any more; the tests build it to drive the
// frozen decoder.
func lzV3Stream(t testing.TB, src []byte) []byte {
	t.Helper()
	v2, err := LZ{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	size, lits, seq, err := lzSections(v2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := bitstream.AppendUvarint(nil, size)
	out = appendDualBytes(t, out, lits)
	return appendDualBytes(t, out, seq)
}

// lzSections splits an LZ stream with lanes-lane sections into its
// declared size, literal bytes and sequence bytes.
func lzSections(stream []byte, lanes int) (size uint64, lits, seq []byte, err error) {
	br := bitstream.NewByteReader(stream)
	if size, err = br.ReadUvarint(); err != nil {
		return 0, nil, nil, err
	}
	var hs huffman.DecodeScratch
	if lits, err = hs.DecodeBytes(br, lanes, nil, nil); err != nil {
		return 0, nil, nil, err
	}
	if seq, err = hs.DecodeBytes(br, lanes, nil, nil); err != nil {
		return 0, nil, nil, err
	}
	return size, lits, seq, nil
}

// appendDualBytes appends data as one dual-lane section: the code table of
// all of data, the count, then each half packed with that table.
func appendDualBytes(t testing.TB, dst, data []byte) []byte {
	t.Helper()
	freq := map[int]uint64{}
	syms := make([]int, len(data))
	for i, b := range data {
		freq[int(b)]++
		syms[i] = int(b)
	}
	enc, err := huffman.Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	h := (len(syms) + 1) / 2
	var w0, w1 bitstream.Writer
	if err := enc.EncodeAll(&w0, syms[:h]); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeAll(&w1, syms[h:]); err != nil {
		t.Fatal(err)
	}
	dst = bitstream.AppendSection(dst, enc.AppendTable(nil))
	dst = bitstream.AppendUvarint(dst, uint64(len(data)))
	dst = bitstream.AppendSection(dst, w0.Bytes())
	return bitstream.AppendSection(dst, w1.Bytes())
}

func lzV3Corpus(rng *rand.Rand) [][]byte {
	mk := func(n int, gen func(i int) byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = gen(i)
		}
		return b
	}
	long := make([]byte, 600<<10)
	for i := range long {
		long[i] = byte(rng.Intn(7) * 40)
	}
	return [][]byte{
		nil,
		{},
		{42},
		[]byte("abc"),
		[]byte("abcdefg"),
		[]byte("abcdabcdabcdabcdabcd"),
		bytes.Repeat([]byte{0}, 100000), // long overlapping match
		bytes.Repeat([]byte("the quick brown fox "), 500),
		mk(5000, func(i int) byte { return byte(i * i >> 3) }),
		mk(65536, func(i int) byte { return byte(rng.Intn(4)) }),
		long,
	}
}

// TestLZV3RoundTrip decodes v3 streams of a mixed corpus back to their
// input, and pins that a V3 coder refuses to compress.
func TestLZV3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	z := LZ{V3: true}
	var out []byte
	for ci, src := range lzV3Corpus(rng) {
		dec, err := z.AppendDecompress(out[:0], lzV3Stream(t, src))
		if err != nil {
			t.Fatalf("case %d: decompress: %v", ci, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: round trip mismatch (%d bytes in, %d out)", ci, len(src), len(dec))
		}
		out = dec
	}
	if _, err := z.Compress([]byte("payload")); !errors.Is(err, errV3ReadOnly) {
		t.Fatalf("V3 Compress: err = %v, want the read-only error", err)
	}
}

// TestLZV3Deterministic pins that the pooled decode state carries nothing
// between calls: v3 decodes interleaved with v2 decodes on the same pool
// keep returning identical bytes.
func TestLZV3Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := make([]byte, 200000)
	for i := range src {
		src[i] = byte(rng.Intn(17) * 15)
	}
	v3 := lzV3Stream(t, src)
	other := bytes.Repeat([]byte("unrelated "), 3000)
	v2, err := LZ{}.Compress(other)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		got, err := LZ{V3: true}.Decompress(v3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("iteration %d: v3 decode diverged", k)
		}
		if got, err := (LZ{}).Decompress(v2); err != nil || !bytes.Equal(got, other) {
			t.Fatalf("iteration %d: interleaved v2 decode: %v", k, err)
		}
	}
}

func TestLZV3CorruptInput(t *testing.T) {
	z := LZ{V3: true}
	src := bytes.Repeat([]byte("payload payload "), 1000)
	enc := lzV3Stream(t, src)
	for cut := 0; cut < len(enc); cut += 13 {
		if _, err := z.Decompress(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// Flip bits across the stream; decode must error or round-trip-fail
	// gracefully, never panic.
	for off := 0; off < len(enc); off += 31 {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x10
		dec, err := z.Decompress(mut)
		if err == nil && len(dec) != len(src) {
			t.Fatalf("offset %d: silent wrong-length success", off)
		}
	}
	// A v2 stream is not a v3 one.
	v2, err := LZ{}.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := z.Decompress(v2); err == nil && bytes.Equal(dec, src) {
		t.Fatal("v2 stream decoded as v3")
	}
}

// FuzzLZV3RoundTrip decodes arbitrary bytes as a v3 LZ stream under a
// memory budget. Every outcome is an error or a decode within the budget,
// never a panic; an accepted stream must decode exactly as its sections
// re-framed as a v2 stream do. The seeds are v3 streams of known inputs,
// which unmutated must round-trip.
func FuzzLZV3RoundTrip(f *testing.F) {
	want := map[string][]byte{}
	for _, src := range [][]byte{
		[]byte("seed seed seed seed"),
		{},
		bytes.Repeat([]byte{9, 9, 9, 9, 9, 1}, 64),
	} {
		stream := lzV3Stream(f, src)
		want[string(stream)] = src
		f.Add(stream)
	}
	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, stream []byte) {
		tx := budget.New(limit).Begin()
		defer tx.Close()
		got, err := LZ{V3: true}.DecompressTx(stream, tx)
		src, seed := want[string(stream)]
		if err != nil {
			if seed {
				t.Fatalf("seed stream failed to decode: %v", err)
			}
			return
		}
		if len(got) > limit {
			t.Fatalf("decoded %d bytes past a %d-byte budget", len(got), limit)
		}
		if seed && !bytes.Equal(got, src) {
			t.Fatal("seed stream did not round-trip")
		}
		size, lits, seq, err := lzSections(stream, 2)
		if err != nil {
			t.Fatalf("accepted stream does not split: %v", err)
		}
		v2 := bitstream.AppendUvarint(nil, size)
		if v2, err = huffman.EncodeBytes(v2, lits); err != nil {
			t.Fatal(err)
		}
		if v2, err = huffman.EncodeBytes(v2, seq); err != nil {
			t.Fatal(err)
		}
		ref, err := LZ{}.Decompress(v2)
		if err != nil {
			t.Fatalf("v2 re-framing rejected: %v", err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatal("v3 and v2 decodes of the same sections diverge")
		}
	})
}
