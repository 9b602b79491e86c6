package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// dualSection assembles a dual-lane (format v3) section for syms in the
// layout DESIGN.md §4.6 specifies:
//
//	table || n || section(EncodeAll(lane0)) || section(EncodeAll(lane1))
//
// with lane0 = syms[:(n+1)/2]. Nothing in the module writes this layout
// any more; the tests build it to drive the frozen decoder.
func dualSection(t testing.TB, syms []int) []byte {
	t.Helper()
	enc, err := (*Scratch)(nil).buildFor(syms)
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
	out := bitstream.AppendSection(nil, enc.AppendTable(nil))
	out = bitstream.AppendUvarint(out, uint64(len(syms)))
	out = bitstream.AppendSection(out, w0.Bytes())
	return bitstream.AppendSection(out, w1.Bytes())
}

// dualBytesSection is dualSection over byte symbols.
func dualBytesSection(t testing.TB, data []byte) []byte {
	t.Helper()
	syms := make([]int, len(data))
	for i, b := range data {
		syms[i] = int(b)
	}
	return dualSection(t, syms)
}

func roundTripInts2(t *testing.T, syms []int) {
	t.Helper()
	got, err := decodeInts(bitstream.NewByteReader(dualSection(t, syms)), 2)
	if err != nil {
		t.Fatalf("dual decode: %v", err)
	}
	if len(got) != len(syms) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(syms))
	}
	for i := range got {
		if got[i] != syms[i] {
			t.Fatalf("value mismatch at %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

func TestDualIntsRoundTripEdges(t *testing.T) {
	cases := [][]int{
		{},                    // empty
		{42},                  // single symbol, odd n
		{7, 7},                // single distinct symbol, even n
		{7, 7, 7},             // single distinct symbol, odd n
		{-3, 5, -3, 5, 9},     // odd n, negative symbols
		{1, 2, 3, 4, 5, 6},    // even n, all distinct
		{1 << 40, -1 << 40},   // outside int32: pair LUT must fall back
		{0, 1 << 40, 0, 0, 5}, // mixed narrow/wide
	}
	for _, c := range cases {
		roundTripInts2(t, c)
	}
}

func TestDualIntsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5000)
		nsym := 1 + rng.Intn(300)
		syms := make([]int, n)
		for i := range syms {
			// Skewed draw so some codes are short and hot.
			v := rng.Intn(nsym)
			if rng.Intn(3) > 0 {
				v = rng.Intn(1 + nsym/8)
			}
			syms[i] = v - nsym/2
		}
		roundTripInts2(t, syms)
	}
}

// TestDualIntsLongCodes drives codes past lutBits so decode exercises the
// pair-LUT fallback into subtables mid-stream.
func TestDualIntsLongCodes(t *testing.T) {
	// Exponential weights produce a maximally skewed tree; with 40 symbols
	// the rare ones get codes well beyond 11 bits.
	var payload []int
	for i := 0; i < 40; i++ {
		reps := 1 << uint(i%20)
		for j := 0; j < reps && len(payload) < 40000; j++ {
			payload = append(payload, i)
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(payload), func(i, j int) {
		payload[i], payload[j] = payload[j], payload[i]
	})
	roundTripInts2(t, payload)
}

// TestDualLanesMatchSingleStream checks the dual-lane decoder against the
// single-stream one: each lane of a v3 section, re-framed as a v2 section
// under the same table, must decode standalone, and the two halves must
// equal the dual decode of the whole section.
func TestDualLanesMatchSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		syms := make([]int, n)
		for i := range syms {
			syms[i] = rng.Intn(100)
		}
		sec := dualSection(t, syms)
		dual, err := decodeInts(bitstream.NewByteReader(sec), 2)
		if err != nil {
			t.Fatal(err)
		}
		l0, l1, err := splitLanes(sec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := decodeInts(bitstream.NewByteReader(l0), 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeInts(bitstream.NewByteReader(l1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if h := (n + 1) / 2; len(a) != h || len(b) != n-h {
			t.Fatalf("trial %d: lane lengths %d+%d, want %d+%d", trial, len(a), len(b), h, n-h)
		}
		joined := append(append([]int{}, a...), b...)
		for i := range joined {
			if joined[i] != syms[i] || dual[i] != syms[i] {
				t.Fatalf("trial %d: lane split decode mismatch at %d", trial, i)
			}
		}
	}
}

// splitLanes re-frames the two lanes of a dual section as two single-lane
// sections sharing its table.
func splitLanes(sec []byte) (l0, l1 []byte, err error) {
	br := bitstream.NewByteReader(sec)
	table, err := br.ReadSection()
	if err != nil {
		return nil, nil, err
	}
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, nil, err
	}
	p0, err := br.ReadSection()
	if err != nil {
		return nil, nil, err
	}
	p1, err := br.ReadSection()
	if err != nil {
		return nil, nil, err
	}
	h := n - n/2
	lane := func(count uint64, payload []byte) []byte {
		out := bitstream.AppendSection(nil, table)
		out = bitstream.AppendUvarint(out, count)
		return bitstream.AppendSection(out, payload)
	}
	return lane(h, p0), lane(n-h, p1), nil
}

func TestDualBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ds DecodeScratch
	var buf []byte
	shapes := []func(n int) []byte{
		func(n int) []byte { // uniform random
			b := make([]byte, n)
			rng.Read(b)
			return b
		},
		func(n int) []byte { // runs of few symbols
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4) * 63)
			}
			return b
		},
		func(n int) []byte { // skewed
			b := make([]byte, n)
			for i := range b {
				if rng.Intn(10) == 0 {
					b[i] = byte(rng.Intn(256))
				} else {
					b[i] = 'a'
				}
			}
			return b
		},
	}
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(8192)
		data := shapes[trial%len(shapes)](n)
		got, err := ds.DecodeBytes(bitstream.NewByteReader(dualBytesSection(t, data)), 2, buf, nil)
		if err != nil {
			t.Fatalf("trial %d: dual byte decode: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: byte round trip mismatch (n=%d)", trial, n)
		}
		buf = got
	}
}

// TestDualBytesMatchesInts pins the byte path of the dual-lane decoder to
// the int path: both read the same section to the same values, and the
// byte path rejects wide symbols with ErrByteRange.
func TestDualBytesMatchesInts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ds DecodeScratch
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(4096)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(40))
		}
		sec := dualBytesSection(t, data)
		got, err := ds.DecodeBytes(bitstream.NewByteReader(sec), 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := decodeInts(bitstream.NewByteReader(sec), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(got) {
			t.Fatalf("trial %d: int path decoded %d values, byte path %d", trial, len(vals), len(got))
		}
		for i := range vals {
			if vals[i] != int(got[i]) || got[i] != data[i] {
				t.Fatalf("trial %d: int and byte paths diverge at %d", trial, i)
			}
		}
	}

	// Wide symbols decode cleanly as ints but poison the byte path.
	sec := dualSection(t, []int{1, 300, 2, 2, 300, 1, 1})
	if _, err := decodeInts(bitstream.NewByteReader(sec), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DecodeBytes(bitstream.NewByteReader(sec), 2, nil, nil); !errors.Is(err, ErrByteRange) {
		t.Fatalf("want ErrByteRange, got %v", err)
	}
}

// TestDualDecodeCorrupt checks truncation and garbage fail with errors, not
// panics or silent success.
func TestDualDecodeCorrupt(t *testing.T) {
	syms := make([]int, 999)
	for i := range syms {
		syms[i] = i % 37
	}
	enc := dualSection(t, syms)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := decodeInts(bitstream.NewByteReader(enc[:cut]), 2); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
		var ds DecodeScratch
		if _, err := ds.DecodeBytes(bitstream.NewByteReader(enc[:cut]), 2, nil, nil); err == nil {
			t.Fatalf("byte truncation at %d decoded successfully", cut)
		}
	}
}

// FuzzDualRoundTrip decodes arbitrary bytes as a dual-lane section under a
// memory budget. Every outcome is an error or a decode within the budget,
// never a panic, and any accepted section must decode exactly as its two
// lanes do through the single-stream (v2) decoder. The seeds are sections
// assembled from symbol streams, so unmutated they also round-trip.
func FuzzDualRoundTrip(f *testing.F) {
	seeds := [][]byte{
		[]byte("hello hello hello"),
		{0},
		{},
		bytes.Repeat([]byte{1, 2, 3, 250}, 100),
	}
	want := map[string][]int{}
	for _, data := range seeds {
		syms := make([]int, len(data))
		for i, b := range data {
			syms[i] = int(int8(b)) * int(b)
		}
		sec := dualSection(f, syms)
		want[string(sec)] = syms
		f.Add(sec)
	}
	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, sec []byte) {
		var ds DecodeScratch
		tx := budget.New(limit).Begin()
		defer tx.Close()
		got, err := ds.DecodeInts(bitstream.NewByteReader(sec), 2, nil, tx)
		if err != nil {
			if syms, ok := want[string(sec)]; ok {
				t.Fatalf("seed section of %d symbols failed to decode: %v", len(syms), err)
			}
			return
		}
		if 8*len(got) > limit {
			t.Fatalf("decoded %d symbols past a %d-byte budget", len(got), limit)
		}
		if syms, ok := want[string(sec)]; ok && !slices.Equal(got, syms) {
			t.Fatal("seed section did not round-trip")
		}
		l0, l1, err := splitLanes(sec)
		if err != nil {
			t.Fatalf("accepted section does not re-frame: %v", err)
		}
		a, err := decodeInts(bitstream.NewByteReader(l0), 1)
		if err != nil {
			t.Fatalf("lane 0 rejected by the single-stream decoder: %v", err)
		}
		b, err := decodeInts(bitstream.NewByteReader(l1), 1)
		if err != nil {
			t.Fatalf("lane 1 rejected by the single-stream decoder: %v", err)
		}
		if !slices.Equal(append(a, b...), got) {
			t.Fatal("dual decode diverges from the single-stream decode of its lanes")
		}
		if bs, err := ds.DecodeBytes(bitstream.NewByteReader(sec), 2, nil, nil); err == nil {
			for i := range bs {
				if int(bs[i]) != got[i] {
					t.Fatalf("byte path diverges at %d", i)
				}
			}
		}
	})
}
