package huffman

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// decodeInts and decodeBytes decode one section with fresh scratch state.
func decodeInts(br *bitstream.ByteReader, lanes int) ([]int, error) {
	var s DecodeScratch
	return s.DecodeInts(br, lanes, nil, nil)
}

func decodeBytes(br *bitstream.ByteReader, lanes int) ([]byte, error) {
	var s DecodeScratch
	return s.DecodeBytes(br, lanes, nil, nil)
}

// newDecoder builds a Decoder from a symbol→length map through the map
// path, with fresh scratch state.
func newDecoder(lengths map[int]uint8) (*Decoder, error) {
	s := new(DecodeScratch)
	if err := s.dec.init(lengths, s); err != nil {
		return nil, err
	}
	return &s.dec, nil
}

// decodeAll reads exactly n symbols from r with the single-lane int loop.
func decodeAll(d *Decoder, r *bitstream.Reader, n int) ([]int, error) {
	out := make([]int, n)
	if n == 0 {
		return out, nil
	}
	if len(d.symbols) == 0 {
		return nil, ErrCorrupt
	}
	if err := d.decodeInto(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// refReadTable is the historical allocating table builder, kept test-only
// as the reference for DecodeScratch.readTable: a symbol→length map (last
// entry wins), a comparison sort into canonical (length, symbol) order, and
// a fresh Decoder with freshly allocated tables.
func refReadTable(br *bitstream.ByteReader) (*Decoder, error) {
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, ErrCorrupt
	}
	lengths := make(map[int]uint8, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, err := br.ReadVarint()
		if err != nil {
			return nil, err
		}
		prev += d
		l, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
		lengths[int(prev)] = l
	}
	list := make([]symLen, 0, len(lengths))
	for s, l := range lengths {
		list = append(list, symLen{s, l})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].l != list[j].l {
			return list[i].l < list[j].l
		}
		return list[i].sym < list[j].sym
	})
	s := new(DecodeScratch)
	if err := s.dec.initSorted(list, s); err != nil {
		return nil, err
	}
	return &s.dec, nil
}

// decoderDiff describes the first difference between two decoders' tables
// (pair tables included, built on demand), or returns "" when identical.
func decoderDiff(a, b *Decoder) string {
	switch {
	case !slices.Equal(a.symbols, b.symbols):
		return fmt.Sprintf("symbols %v vs %v", a.symbols, b.symbols)
	case a.maxLen != b.maxLen:
		return fmt.Sprintf("maxLen %d vs %d", a.maxLen, b.maxLen)
	case a.count != b.count || a.firstCode != b.firstCode || a.firstIndex != b.firstIndex:
		return "canonical count/firstCode/firstIndex differ"
	case len(a.symbols) == 0:
		return "" // an empty code's lookup tables are never read
	case !slices.Equal(a.lut, b.lut):
		return "root LUT differs"
	case !slices.Equal(a.sub, b.sub):
		return "subtables differ"
	}
	a.buildPair()
	b.buildPair()
	if !slices.Equal(a.pair, b.pair) {
		return "pair LUT differs"
	}
	return ""
}

// checkTableDifferential parses table with the reference builder and with
// the reused scratch s, failing on any difference in outcome or tables.
func checkTableDifferential(t *testing.T, s *DecodeScratch, table []byte) {
	t.Helper()
	want, werr := refReadTable(bitstream.NewByteReader(table))
	got, gerr := s.readTable(bitstream.NewByteReader(table), nil)
	if (werr == nil) != (gerr == nil) || (werr != nil && !errors.Is(gerr, werr)) {
		t.Fatalf("table % x: reference err %v, scratch err %v", table, werr, gerr)
	}
	if werr != nil {
		return
	}
	if diff := decoderDiff(want, got); diff != "" {
		t.Fatalf("table % x: %s", table, diff)
	}
}

// randomTable serializes a random code table: Build-derived tables (what
// the encoders write), explicit long-code chains reaching the subtables and
// the slow path, and adversarial non-ascending or duplicate listings.
func randomTable(rng *rand.Rand) []byte {
	type pair struct {
		sym int64
		l   uint8
	}
	var pairs []pair
	switch rng.Intn(3) {
	case 0:
		freq := map[int]uint64{}
		n := 1 + rng.Intn(400)
		span := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			freq[rng.Intn(span)-span/2] = uint64(1 + rng.Intn(1<<uint(rng.Intn(24))))
		}
		enc, err := Build(freq)
		if err != nil {
			panic(err)
		}
		return enc.AppendTable(nil)
	case 1:
		l := uint8(1 + rng.Intn(3))
		for s := int64(rng.Intn(100)); l <= MaxCodeLen; s += int64(1 + rng.Intn(9)) {
			pairs = append(pairs, pair{s, l})
			l += uint8(1 + rng.Intn(4))
		}
	default:
		for i := rng.Intn(12); i >= 0; i-- {
			pairs = append(pairs, pair{int64(rng.Intn(16) - 8), uint8(1 + rng.Intn(6))})
		}
	}
	table := bitstream.AppendUvarint(nil, uint64(len(pairs)))
	prev := int64(0)
	for _, p := range pairs {
		table = bitstream.AppendVarint(table, p.sym-prev)
		table = append(table, p.l)
		prev = p.sym
	}
	return table
}

// TestReadTableMatchesReference is the seeded slice of the table-builder
// differential: one scratch reused across every table, as the pooled decode
// paths reuse it, must build exactly the reference's tables.
func TestReadTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s DecodeScratch
	for trial := 0; trial < 400; trial++ {
		checkTableDifferential(t, &s, randomTable(rng))
	}
	// A symbol sum that wraps int64 must not pass for ascending.
	table := bitstream.AppendUvarint(nil, 3)
	table = append(bitstream.AppendVarint(table, 1<<62), 2)
	table = append(bitstream.AppendVarint(table, 1<<62), 2)
	table = append(bitstream.AppendVarint(table, 1<<62), 1)
	checkTableDifferential(t, &s, table)
}

// FuzzReadTableDifferential fuzzes the pooled table builder against the
// reference over arbitrary serialized tables.
func FuzzReadTableDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		f.Add(randomTable(rng))
	}
	var s DecodeScratch
	f.Fuzz(func(t *testing.T, table []byte) {
		checkTableDifferential(t, &s, table)
	})
}

// forgedSection assembles a section around a real two-symbol table with a
// claimed symbol count n and zero-filled lanes of the given sizes.
func forgedSection(n uint64, lanes ...int) []byte {
	enc, err := Build(map[int]uint64{0: 1, 1: 1})
	if err != nil {
		panic(err)
	}
	sec := bitstream.AppendSection(nil, enc.AppendTable(nil))
	sec = bitstream.AppendUvarint(sec, n)
	for _, size := range lanes {
		sec = bitstream.AppendSection(sec, make([]byte, size))
	}
	return sec
}

// TestForgedCountGuard: every lane layout and destination type rejects a
// forged symbol or table-entry count with ErrCorrupt or a budget error
// under a 1 MiB budget, before allocating anything near the claimed size.
func TestForgedCountGuard(t *testing.T) {
	const lane = 64 << 10
	plausible := uint64(lane)*64 + 64 // the largest count one lane may claim
	bigTable := bitstream.AppendSection(nil, bitstream.AppendUvarint(nil, 1<<20))
	cases := []struct {
		name    string
		lanes   int
		sec     []byte
		corrupt bool // ErrCorrupt expected; else a budget rejection
	}{
		{"1 lane, count past cap", 1, forgedSection(1<<62, lane), true},
		{"2 lanes, count past cap", 2, forgedSection(1<<62, lane, lane), true},
		{"1 lane, count past payload", 1, forgedSection(plausible+1, lane), true},
		{"2 lanes, lane 1 past payload", 2, forgedSection(2*plausible, lane, lane/2), true},
		{"2 lanes, empty lane 1", 2, forgedSection(1000, lane, 0), true},
		{"1 lane, plausible count over budget", 1, forgedSection(plausible, lane), false},
		{"2 lanes, plausible count over budget", 2, forgedSection(2*plausible, lane, lane), false},
		{"1 lane, table past cap", 1, bitstream.AppendSection(nil, bitstream.AppendUvarint(nil, 1<<24+1)), true},
		{"2 lanes, table past cap", 2, bitstream.AppendSection(nil, bitstream.AppendUvarint(nil, 1<<24+1)), true},
		{"1 lane, table over budget", 1, bigTable, false},
		{"2 lanes, table over budget", 2, bigTable, false},
	}
	b := budget.New(1 << 20)
	for _, tc := range cases {
		for _, typ := range []string{"ints", "bytes"} {
			t.Run(tc.name+"/"+typ, func(t *testing.T) {
				var s DecodeScratch
				tx := b.Begin()
				defer tx.Close()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				var err error
				if typ == "ints" {
					_, err = s.DecodeInts(bitstream.NewByteReader(tc.sec), tc.lanes, nil, tx)
				} else {
					_, err = s.DecodeBytes(bitstream.NewByteReader(tc.sec), tc.lanes, nil, tx)
				}
				runtime.ReadMemStats(&ms1)
				switch {
				case tc.corrupt && !errors.Is(err, ErrCorrupt):
					t.Fatalf("err = %v, want ErrCorrupt", err)
				case !tc.corrupt && !errors.Is(err, budget.ErrExceeded):
					t.Fatalf("err = %v, want a budget rejection", err)
				}
				if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<10 {
					t.Fatalf("rejection allocated %d bytes", grew)
				}
			})
		}
	}
}

// TestSectionSteadyStateAllocs pins the pooling contract of the section
// reader: decoding int sections of either lane layout through a reused
// DecodeScratch into a reused destination allocates nothing.
func TestSectionSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 20000)
	for i := range syms {
		syms[i] = int(rng.NormFloat64() * 40)
		if rng.Intn(50) == 0 {
			syms[i] = rng.Intn(1 << 16) // long codes reach the subtables
		}
	}
	for lanes := 1; lanes <= 2; lanes++ {
		sec := dualSection(t, syms)
		if lanes == 1 {
			var err error
			if sec, err = EncodeInts(nil, syms); err != nil {
				t.Fatal(err)
			}
		}
		var s DecodeScratch
		buf := make([]int, len(syms))
		tx := budget.New(1 << 30).Begin()
		defer tx.Close()
		got := testing.AllocsPerRun(20, func() {
			out, err := s.DecodeInts(bitstream.NewByteReader(sec), lanes, buf, tx)
			if err != nil || !slices.Equal(out, syms) {
				t.Fatalf("lanes=%d: decode err %v or mismatch", lanes, err)
			}
			tx.Close()
		})
		if got != 0 {
			t.Errorf("lanes=%d: %v allocs per decode, want 0", lanes, got)
		}
	}
}
