package huffman

import (
	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
)

// Section reader. Every Huffman section the encoders write — single-lane
// (formats v1/v2) and dual-lane (v3), over int or byte symbols — is parsed
// by one routine on DecodeScratch:
//
//	section(table) || uvarint n || section(lane0) [|| section(lane1)]
//
// DecodeScratch.DecodeInts and DecodeScratch.DecodeBytes are its only entry
// points. Both share one set of forged-length guards and one budget policy:
// a nil *budget.Tx means unlimited; otherwise the section's *claimed* sizes
// are charged before anything is sized from them, so a forged table or
// symbol count is rejected with budget.ErrExceeded (or ErrCorrupt) instead
// of ballooning into a huge allocation.
//
// Accounting is by claimed size, independent of buffer reuse: a pooled
// destination with spare capacity is charged the same as a fresh
// allocation, so acceptance is deterministic for a given input. Charges:
// 8 bytes per claimed int symbol, 1 per claimed byte symbol, and
// tableEntryCost per declared table entry (the parsed pair list, its
// counting-sort copy, and the entry's amortized share of the bounded
// LUT/subtables).

// tableEntryCost is the accounted bytes per declared code-table entry.
const tableEntryCost = 48

// maxTableEntries caps a table's declared entry count.
const maxTableEntries = 1 << 24

// maxSectionSymbols caps a section's declared symbol count, whatever its
// lane layout and destination type.
const maxSectionSymbols = 1 << 34

// DecodeScratch holds the reusable state of section decoding: a pooled
// Decoder whose tables rebuild in place, plus parse and reader scratch. A
// DecodeScratch must not be used concurrently, and a Decoder obtained
// through it is only valid until the scratch's next use. The zero value is
// ready to use.
type DecodeScratch struct {
	dec     Decoder
	lengths map[int]uint8
	list    []symLen
	sorted  []symLen
	ext     []uint8
	r       bitstream.Reader
	r2      bitstream.Reader // second lane of the dual-stream (v3) payload
	br      bitstream.ByteReader
}

// DecodeInts decodes one section from br into buf (reused when it has
// capacity). lanes is 1 for the single-stream layout of formats v1/v2 and 2
// for the dual-lane layout of v3.
func (s *DecodeScratch) DecodeInts(br *bitstream.ByteReader, lanes int, buf []int, tx *budget.Tx) ([]int, error) {
	dec, n, err := s.open(br, lanes, 8, tx)
	if err != nil {
		return nil, err
	}
	var out []int
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]int, n)
	}
	if n == 0 {
		return out, nil
	}
	if lanes == 2 {
		dec.buildPair()
		err = dec.decodeDual(&s.r, &s.r2, out, (n+1)/2)
	} else {
		err = dec.decodeInto(&s.r, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeBytes is DecodeInts with a byte destination. It accepts exactly the
// sections DecodeInts accepts with all symbols in 0..255, and fails with
// the same error sequencing: stream and table errors surface first, and
// ErrByteRange is returned only when the symbol stream itself decoded
// cleanly.
func (s *DecodeScratch) DecodeBytes(br *bitstream.ByteReader, lanes int, buf []byte, tx *budget.Tx) ([]byte, error) {
	dec, n, err := s.open(br, lanes, 1, tx)
	if err != nil {
		return nil, err
	}
	var out []byte
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]byte, n)
	}
	if n == 0 {
		return out, nil
	}
	if lanes == 2 {
		dec.buildPair()
		err = dec.decodeDualBytes(&s.r, &s.r2, out, (n+1)/2)
	} else {
		err = dec.decodeBytes(&s.r, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// open parses a section's table, symbol count and lane payloads, leaving
// the lanes loaded into s.r and s.r2. Every claimed size is validated and
// charged to tx (elem bytes per symbol) before the caller sizes its output
// from the returned count; n == 0 is an empty section.
func (s *DecodeScratch) open(br *bitstream.ByteReader, lanes int, elem int64, tx *budget.Tx) (*Decoder, int, error) {
	if lanes != 1 && lanes != 2 {
		panic("huffman: a section has 1 or 2 lanes")
	}
	table, err := br.ReadSection()
	if err != nil {
		return nil, 0, err
	}
	s.br.Reset(table)
	dec, err := s.readTable(&s.br, tx)
	if err != nil {
		return nil, 0, err
	}
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, 0, err
	}
	p0, err := br.ReadSection()
	if err != nil {
		return nil, 0, err
	}
	var p1 []byte
	if lanes == 2 {
		if p1, err = br.ReadSection(); err != nil {
			return nil, 0, err
		}
	}
	if n == 0 {
		return dec, 0, nil
	}
	// Lane 0 holds the first (n+1)/2 symbols of a dual section, all of a
	// single-lane one; no lane may claim more symbols than its payload
	// could carry.
	h := n
	if lanes == 2 {
		h = (n + 1) / 2
	}
	if n > maxSectionSymbols || h > uint64(len(p0))*64+64 || n-h > uint64(len(p1))*64+64 {
		return nil, 0, ErrCorrupt
	}
	if err := tx.Reserve(elem * int64(n)); err != nil {
		return nil, 0, err
	}
	if len(dec.symbols) == 0 {
		return nil, 0, ErrCorrupt
	}
	s.r.Reset(p0)
	s.r2.Reset(p1)
	return dec, int(n), nil
}

// readTable parses a serialized code table (AppendTable's layout) into the
// scratch's reusable Decoder, charging the declared entry count to tx
// before parsing.
//
// Tables our encoders write list symbols strictly ascending, so the common
// path skips the symbol→length map entirely: parsed pairs go through a
// stable counting sort by code length, which lands them in exactly the
// (length, symbol) order the map path sorts into. Non-ascending tables
// (only reachable from corrupt or adversarial streams) fall back to the
// map to keep its last-entry-wins semantics.
func (s *DecodeScratch) readTable(br *bitstream.ByteReader, tx *budget.Tx) (*Decoder, error) {
	n, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxTableEntries {
		return nil, ErrCorrupt
	}
	if err := tx.Reserve(int64(n) * tableEntryCost); err != nil {
		return nil, err
	}
	list := s.list[:0]
	prev := int64(0)
	ascending := true
	for i := uint64(0); i < n; i++ {
		d, err := br.ReadVarint()
		if err != nil {
			return nil, err
		}
		// A non-positive delta or a wrapped sum breaks strict ascent.
		next := prev + d
		if i > 0 && next <= prev {
			ascending = false
		}
		prev = next
		l, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > MaxCodeLen {
			return nil, ErrCorrupt
		}
		list = append(list, symLen{int(prev), l})
	}
	s.list = list
	if !ascending {
		if s.lengths == nil {
			s.lengths = make(map[int]uint8, 64)
		} else {
			clear(s.lengths)
		}
		for _, it := range list {
			s.lengths[it.sym] = it.l
		}
		if err := s.dec.init(s.lengths, s); err != nil {
			return nil, err
		}
		return &s.dec, nil
	}
	// Stable counting sort by length; symbols stay ascending within each
	// length, so the result is the canonical (length, symbol) order.
	var pos [MaxCodeLen + 1]int32
	for _, it := range list {
		pos[it.l]++
	}
	off := int32(0)
	for l := 1; l <= MaxCodeLen; l++ {
		c := pos[l]
		pos[l] = off
		off += c
	}
	sorted := s.sorted
	if cap(sorted) < len(list) {
		sorted = make([]symLen, len(list))
		s.sorted = sorted
	} else {
		sorted = sorted[:len(list)]
	}
	for _, it := range list {
		sorted[pos[it.l]] = it
		pos[it.l]++
	}
	if err := s.dec.initSorted(sorted, s); err != nil {
		return nil, err
	}
	return &s.dec, nil
}
