package huffman

import "github.com/mdz/mdz/internal/bitstream"

// This file decodes the format v3 entropy sections: two interleaved lanes
// with multi-symbol decode. Format v3 is read-only; nothing in the module
// writes these sections any more.
//
// A v3 section splits the symbol sequence into two halves ("lanes") that
// were bit-packed independently and laid out as
//
//	section(table) || uvarint n || section(lane0) || section(lane1)
//
// with lane0 = syms[:(n+1)/2] and lane1 = syms[(n+1)/2:]. The table is the
// identical serialization v2 uses (AppendTable's layout), and each lane is
// exactly a single-stream EncodeAll of its half under that table. The
// decoder refills the lanes alternately, so each lane's shift chain runs
// independently of the other's.
//
// On top of the dual lanes, decode uses a pair LUT: each lutBits-wide root
// probe resolves up to two complete codes in one table load (pairEnt), so
// dense alphabets — where most codes are a handful of bits — average well
// under one table access per symbol.

// pairEnt is one slot of the multi-symbol decode table. n is the number of
// symbols the probe resolves: 2 when a complete second code fits in the
// lutBits window after the first (consume lt bits), 1 when only the first
// code resolves (consume l1 bits), 0 when the prefix needs the checked
// fallback path (subtable codes, uncovered long codes, or symbols outside
// int32). w flags symbols outside 0..255 for the byte-section decoder: bit 0
// for sym1, bit 1 for sym2.
type pairEnt struct {
	sym1, sym2 int32
	l1, lt     uint8
	n, w       uint8
}

// buildPair derives the multi-symbol root table from the already-built
// two-level LUT. For a root slot p whose first code has length l1, the
// window advanced by l1 bits is p<<l1 (mod 2^lutBits) with the vacated low
// bits zero-filled; the entry found there describes a real second code only
// if it is a leaf whose length fits in the remaining lutBits-l1 genuine bits
// — entries reachable purely through the zero fill are excluded by that
// length test, because a leaf of length l2 <= lutBits-l1 is determined by
// the window's top l2 bits alone, all of which are real.
func (d *Decoder) buildPair() {
	if cap(d.pair) >= 1<<lutBits {
		d.pair = d.pair[:1<<lutBits]
	} else {
		d.pair = make([]pairEnt, 1<<lutBits)
	}
	pair := d.pair
	for p := range pair {
		e := d.lut[p]
		if e.len == 0 {
			pair[p] = pairEnt{}
			continue
		}
		sym := d.symbols[e.index]
		if int(int32(sym)) != sym {
			pair[p] = pairEnt{}
			continue
		}
		ent := pairEnt{sym1: int32(sym), l1: e.len, lt: e.len, n: 1}
		if uint(sym) > 255 {
			ent.w = 1
		}
		if rem := lutBits - uint(e.len); rem > 0 {
			e2 := d.lut[(p<<e.len)&(1<<lutBits-1)]
			if e2.len != 0 && uint(e2.len) <= rem {
				if sym2 := d.symbols[e2.index]; int(int32(sym2)) == sym2 {
					ent.sym2 = int32(sym2)
					ent.lt = e.len + e2.len
					ent.n = 2
					if uint(sym2) > 255 {
						ent.w |= 2
					}
				}
			}
		}
		pair[p] = ent
	}
}

// decodeDual fills out from the two lane readers: out[:h] from r0, out[h:]
// from r1, alternating one pair-LUT step per lane inside a register-resident
// burst. Either lane falling off its fast path (refill short, subtable or
// long code, non-int32 symbol) drops that step to the checked Decode; each
// lane's tail drains through the single-lane fast loop.
func (d *Decoder) decodeDual(r0, r1 *bitstream.Reader, out []int, h int) error {
	need := uint(lutBits)
	if m := uint(d.maxLen); m > need {
		need = m
	}
	pair := d.pair
	i0, i1 := 0, h
	lim0, lim1 := h, len(out)
outer:
	for i0 < lim0 && i1 < lim1 && r0.Ensure(need) && r1.Ensure(need) {
		c0, b0 := r0.BitState()
		c1, b1 := r1.BitState()
		for b0 >= need && b1 >= need && i0 < lim0 && i1 < lim1 {
			e0 := pair[c0>>(64-lutBits)]
			e1 := pair[c1>>(64-lutBits)]
			if e0.n == 0 || e1.n == 0 {
				r0.SetBitState(c0, b0)
				r1.SetBitState(c1, b1)
				if e0.n == 0 {
					s, err := d.Decode(r0)
					if err != nil {
						return err
					}
					out[i0] = s
					i0++
				} else {
					s, err := d.Decode(r1)
					if err != nil {
						return err
					}
					out[i1] = s
					i1++
				}
				continue outer
			}
			if e0.n == 2 && lim0-i0 >= 2 {
				out[i0] = int(e0.sym1)
				out[i0+1] = int(e0.sym2)
				i0 += 2
				c0 <<= e0.lt
				b0 -= uint(e0.lt)
			} else {
				out[i0] = int(e0.sym1)
				i0++
				c0 <<= e0.l1
				b0 -= uint(e0.l1)
			}
			if e1.n == 2 && lim1-i1 >= 2 {
				out[i1] = int(e1.sym1)
				out[i1+1] = int(e1.sym2)
				i1 += 2
				c1 <<= e1.lt
				b1 -= uint(e1.lt)
			} else {
				out[i1] = int(e1.sym1)
				i1++
				c1 <<= e1.l1
				b1 -= uint(e1.l1)
			}
		}
		r0.SetBitState(c0, b0)
		r1.SetBitState(c1, b1)
	}
	if err := d.decodeInto(r0, out[i0:lim0]); err != nil {
		return err
	}
	return d.decodeInto(r1, out[i1:lim1])
}

// decodeDualBytes is decodeDual with a byte destination and the byte-range
// poisoning semantics of decodeBytes: stream errors surface
// immediately, ErrByteRange only after all symbols decode.
func (d *Decoder) decodeDualBytes(r0, r1 *bitstream.Reader, out []byte, h int) error {
	need := uint(lutBits)
	if m := uint(d.maxLen); m > need {
		need = m
	}
	pair := d.pair
	var wideAcc uint8
	i0, i1 := 0, h
	lim0, lim1 := h, len(out)
outer:
	for i0 < lim0 && i1 < lim1 && r0.Ensure(need) && r1.Ensure(need) {
		c0, b0 := r0.BitState()
		c1, b1 := r1.BitState()
		for b0 >= need && b1 >= need && i0 < lim0 && i1 < lim1 {
			e0 := pair[c0>>(64-lutBits)]
			e1 := pair[c1>>(64-lutBits)]
			if e0.n == 0 || e1.n == 0 {
				r0.SetBitState(c0, b0)
				r1.SetBitState(c1, b1)
				if e0.n == 0 {
					s, err := d.Decode(r0)
					if err != nil {
						return err
					}
					if uint(s) > 255 {
						wideAcc = 1
					}
					out[i0] = byte(s)
					i0++
				} else {
					s, err := d.Decode(r1)
					if err != nil {
						return err
					}
					if uint(s) > 255 {
						wideAcc = 1
					}
					out[i1] = byte(s)
					i1++
				}
				continue outer
			}
			if e0.n == 2 && lim0-i0 >= 2 {
				out[i0] = byte(e0.sym1)
				out[i0+1] = byte(e0.sym2)
				i0 += 2
				wideAcc |= e0.w
				c0 <<= e0.lt
				b0 -= uint(e0.lt)
			} else {
				out[i0] = byte(e0.sym1)
				i0++
				wideAcc |= e0.w & 1
				c0 <<= e0.l1
				b0 -= uint(e0.l1)
			}
			if e1.n == 2 && lim1-i1 >= 2 {
				out[i1] = byte(e1.sym1)
				out[i1+1] = byte(e1.sym2)
				i1 += 2
				wideAcc |= e1.w
				c1 <<= e1.lt
				b1 -= uint(e1.lt)
			} else {
				out[i1] = byte(e1.sym1)
				i1++
				wideAcc |= e1.w & 1
				c1 <<= e1.l1
				b1 -= uint(e1.l1)
			}
		}
		r0.SetBitState(c0, b0)
		r1.SetBitState(c1, b1)
	}
	for ; i0 < lim0; i0++ {
		s, err := d.Decode(r0)
		if err != nil {
			return err
		}
		if uint(s) > 255 {
			wideAcc = 1
		}
		out[i0] = byte(s)
	}
	for ; i1 < lim1; i1++ {
		s, err := d.Decode(r1)
		if err != nil {
			return err
		}
		if uint(s) > 255 {
			wideAcc = 1
		}
		out[i1] = byte(s)
	}
	if wideAcc != 0 {
		return ErrByteRange
	}
	return nil
}
