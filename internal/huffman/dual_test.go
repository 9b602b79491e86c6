package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
)

func roundTripInts2(t *testing.T, s *Scratch, syms []int) {
	t.Helper()
	enc, err := s.EncodeInts2(nil, syms)
	if err != nil {
		t.Fatalf("EncodeInts2: %v", err)
	}
	got, err := decodeInts(bitstream.NewByteReader(enc), 2)
	if err != nil {
		t.Fatalf("DecodeInts2: %v", err)
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
	var sc Scratch
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
	for i, c := range cases {
		roundTripInts2(t, nil, c)
		roundTripInts2(t, &sc, c)
		_ = i
	}
}

func TestDualIntsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var sc Scratch
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
		roundTripInts2(t, &sc, syms)
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
	roundTripInts2(t, &Scratch{}, payload)
}

// TestDualLanesMatchSingleStream parses the v3 section and decodes each lane
// with the single-stream decoder: lane bytes must be exactly an independent
// EncodeAll of that half, and the halves must reassemble to the input.
func TestDualLanesMatchSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		syms := make([]int, n)
		for i := range syms {
			syms[i] = rng.Intn(100)
		}
		var sc Scratch
		enc, err := sc.EncodeInts2(nil, syms)
		if err != nil {
			t.Fatal(err)
		}
		br := bitstream.NewByteReader(enc)
		table, err := br.ReadSection()
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := br.ReadUvarint()
		if err != nil {
			t.Fatal(err)
		}
		if int(cnt) != n {
			t.Fatalf("count: got %d want %d", cnt, n)
		}
		p0, err := br.ReadSection()
		if err != nil {
			t.Fatal(err)
		}
		p1, err := br.ReadSection()
		if err != nil {
			t.Fatal(err)
		}
		h := (n + 1) / 2

		// Per-lane bytes must equal an independent single-stream encode.
		e, err := sc.buildFor(syms)
		if err != nil {
			t.Fatal(err)
		}
		var w0, w1 bitstream.Writer
		if err := e.EncodeAll(&w0, syms[:h]); err != nil {
			t.Fatal(err)
		}
		if err := e.EncodeAll(&w1, syms[h:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p0, w0.Bytes()) || !bytes.Equal(p1, w1.Bytes()) {
			t.Fatalf("trial %d: lane bytes differ from single-stream encode", trial)
		}

		// Each lane must decode standalone with the v2 decoder.
		dec, err := new(DecodeScratch).readTable(bitstream.NewByteReader(table), nil)
		if err != nil {
			t.Fatal(err)
		}
		l0, err := decodeAll(dec, bitstream.NewReader(p0), h)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := decodeAll(dec, bitstream.NewReader(p1), n-h)
		if err != nil {
			t.Fatal(err)
		}
		joined := append(append([]int{}, l0...), l1...)
		for i := range joined {
			if joined[i] != syms[i] {
				t.Fatalf("trial %d: lane split decode mismatch at %d", trial, i)
			}
		}
	}
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
		enc, err := EncodeBytes2(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.DecodeBytes(bitstream.NewByteReader(enc), 2, buf, nil)
		if err != nil {
			t.Fatalf("trial %d: DecodeBytes2: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: byte round trip mismatch (n=%d)", trial, n)
		}
		buf = got
	}
}

// TestDualBytesMatchesInts pins the byte dual-lane wire format to the
// generic path: EncodeBytes2 must emit exactly EncodeInts2 over the widened
// values, and DecodeBytes2 must reject wide symbols with ErrByteRange.
func TestDualBytesMatchesInts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(4096)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(40))
		}
		wide := make([]int, n)
		for i, b := range data {
			wide[i] = int(b)
		}
		fromBytes, err := EncodeBytes2(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		fromInts, err := EncodeInts2(nil, wide)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromBytes, fromInts) {
			t.Fatalf("trial %d: EncodeBytes2 and EncodeInts2 wire bytes differ", trial)
		}
		// The generic decoder must also accept the byte-path stream.
		vals, err := decodeInts(bitstream.NewByteReader(fromBytes), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if vals[i] != wide[i] {
				t.Fatalf("trial %d: DecodeInts2 over byte stream mismatch", trial)
			}
		}
	}

	// Wide symbols decode cleanly as ints but poison the byte path.
	var sc Scratch
	var ds DecodeScratch
	enc, err := sc.EncodeInts2(nil, []int{1, 300, 2, 2, 300, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DecodeBytes(bitstream.NewByteReader(enc), 2, nil, nil); !errors.Is(err, ErrByteRange) {
		t.Fatalf("want ErrByteRange, got %v", err)
	}
}

// TestDualDecodeCorrupt checks truncation and garbage fail with errors, not
// panics or silent success.
func TestDualDecodeCorrupt(t *testing.T) {
	var sc Scratch
	syms := make([]int, 999)
	for i := range syms {
		syms[i] = i % 37
	}
	enc, err := sc.EncodeInts2(nil, syms)
	if err != nil {
		t.Fatal(err)
	}
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

// FuzzDualRoundTrip feeds arbitrary bytes through both dual-lane codecs and
// cross-checks the int path against the v2 single-stream codec.
func FuzzDualRoundTrip(f *testing.F) {
	f.Add([]byte("hello hello hello"))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1, 2, 3, 250}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Byte path round trip.
		encB, err := EncodeBytes2(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		var ds DecodeScratch
		gotB, err := ds.DecodeBytes(bitstream.NewByteReader(encB), 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, data) {
			t.Fatal("byte dual round trip mismatch")
		}

		// Int path: derive signed symbols from the input and cross-check
		// against the v2 section codec on decoded values.
		syms := make([]int, len(data))
		for i, b := range data {
			syms[i] = int(int8(b)) * int(b)
		}
		enc2, err := EncodeInts2(nil, syms)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := decodeInts(bitstream.NewByteReader(enc2), 2)
		if err != nil {
			t.Fatal(err)
		}
		enc1, err := EncodeInts(nil, syms)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := decodeInts(bitstream.NewByteReader(enc1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got1) != len(got2) || len(got1) != len(syms) {
			t.Fatal("length divergence between v2 and v3 sections")
		}
		for i := range syms {
			if got2[i] != syms[i] || got1[i] != got2[i] {
				t.Fatalf("value divergence at %d", i)
			}
		}
	})
}
