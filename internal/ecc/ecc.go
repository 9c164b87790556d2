// Package ecc implements the error-correction codes used by the simulated
// Flash device.
//
// Real NAND controllers protect every Flash page with an ECC stored in the
// page's out-of-band (OOB) area. In-Place Appends complicates this because
// the page content changes after the initial program: the appended delta
// records would invalidate a whole-page code. The paper therefore stores
// one ECC for the initially programmed content and one additional ECC per
// appended delta record (Figure 3). This package provides the codec for
// both: a single-error-correcting, double-error-detecting (SEC-DED) code
// over arbitrary byte regions.
//
// The code stores, per protected region, the XOR of the bit positions of
// all 1-bits plus an overall parity bit. A single flipped bit changes the
// position-XOR by exactly its own index, which identifies and corrects it;
// a double flip leaves the parity unchanged while disturbing the syndrome,
// which is reported as uncorrectable.
//
// Every page read and program runs this code over the whole covered
// region, so the signature is computed 64 bits at a time rather than bit
// by bit, with identical results. Within a little-endian word at region
// byte offset i (i a multiple of 8), bits 0..62 sit at positions
// i*8 | (b+1) and bit 63 at i*8+64. A word therefore contributes i*8 when
// its low 63 bits hold an odd number of ones, i*8+64 when bit 63 is set,
// and the low six position bits (b+1) of its set bits. Those low bits are
// linear in the data, so all words are XORed into one accumulator that is
// resolved once, with six masked population counts. Bytes before the first
// and after the last aligned word take the bit-by-bit path.
//
// A protected region may be split in two segments (the page body and its
// footer, with the delta-record area between them left open): EncodeSplit
// and DecodeSplit work on both segments in place, as one region.
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// CodeSize is the number of ECC bytes produced per protected region:
// a 32-bit position XOR, a 16-bit population-count check and a parity byte.
const CodeSize = 7

// Errors reported by Decode.
var (
	// ErrUncorrectable is returned when the protected region holds more
	// bit errors than the code can correct.
	ErrUncorrectable = errors.New("ecc: uncorrectable error")
	// ErrBadCode is returned when the stored code bytes are malformed.
	ErrBadCode = errors.New("ecc: malformed code")
)

// Encode computes the ECC for data and returns the CodeSize code bytes.
// Regions up to 256 MiB are supported, far beyond any Flash page size.
func Encode(data []byte) []byte {
	return EncodeSplit(data, nil)
}

// EncodeSplit is Encode over the region head followed by tail, computed
// in place: EncodeSplit(a, b) equals Encode(append(a, b...)).
func EncodeSplit(head, tail []byte) []byte {
	code := make([]byte, CodeSize)
	posXOR, ones := signature(head, tail)
	binary.LittleEndian.PutUint32(code[0:4], posXOR)
	binary.LittleEndian.PutUint16(code[4:6], uint16(ones))
	code[6] = byte(ones & 1)
	return code
}

// signature returns the XOR of the 1-based bit positions of all set bits
// and the total number of set bits in the region head followed by tail.
func signature(head, tail []byte) (posXOR uint32, ones uint64) {
	x, n := segmentSignature(head, 0)
	tx, tn := segmentSignature(tail, len(head))
	return x ^ tx, n + tn
}

// lowMasks[j] selects the word bits b whose 1-based in-word position b+1
// has bit j set. Bit 63 (position 64) is in none of them.
var lowMasks = func() (m [6]uint64) {
	for b := 0; b < 63; b++ {
		for j := range m {
			if (b+1)>>j&1 != 0 {
				m[j] |= 1 << b
			}
		}
	}
	return m
}()

// segmentSignature is the signature of data placed at byte offset off of
// its region.
func segmentSignature(data []byte, off int) (posXOR uint32, ones uint64) {
	i := 0
	for ; i < len(data) && (off+i)%8 != 0; i++ {
		posXOR, ones = byteSignature(posXOR, ones, data[i], off+i)
	}
	var acc uint64
	base := uint32(off+i) * 8
	words := data[i:]
	for ; len(words) >= 8; words = words[8:] {
		w := binary.LittleEndian.Uint64(words)
		n := bits.OnesCount64(w)
		ones += uint64(n)
		top := uint32(w >> 63)
		odd := (uint32(n) - top) & 1 // parity of the low 63 bits
		posXOR ^= base&-odd ^ (base+64)&-top
		acc ^= w
		base += 64
	}
	i = len(data) - len(words)
	for j, m := range lowMasks {
		posXOR ^= uint32(bits.OnesCount64(acc&m)&1) << j
	}
	for ; i < len(data); i++ {
		posXOR, ones = byteSignature(posXOR, ones, data[i], off+i)
	}
	return posXOR, ones
}

// byteSignature adds byte b at region offset off to a signature, one bit
// at a time.
func byteSignature(posXOR uint32, ones uint64, b byte, off int) (uint32, uint64) {
	if b == 0 {
		return posXOR, ones
	}
	ones += uint64(bits.OnesCount8(b))
	base := uint32(off*8) + 1
	for bit := uint32(0); bit < 8; bit++ {
		if b&(1<<bit) != 0 {
			posXOR ^= base + bit
		}
	}
	return posXOR, ones
}

// Result describes the outcome of a Decode call.
type Result struct {
	// Corrected is the number of bit errors repaired in place (0 or 1).
	Corrected int
}

// Decode verifies data against code and corrects a single bit error in
// place. It returns the number of corrected bits. Double (or more) bit
// errors are detected and reported as ErrUncorrectable.
func Decode(data, code []byte) (Result, error) {
	return DecodeSplit(data, nil, code)
}

// DecodeSplit is Decode over the region head followed by tail, as coded by
// EncodeSplit. A corrected bit is flipped in place in head or tail.
func DecodeSplit(head, tail, code []byte) (Result, error) {
	if len(code) < CodeSize {
		return Result{}, fmt.Errorf("%w: got %d bytes, want %d", ErrBadCode, len(code), CodeSize)
	}
	wantXOR := binary.LittleEndian.Uint32(code[0:4])
	wantOnes := binary.LittleEndian.Uint16(code[4:6])
	wantParity := code[6] & 1

	gotXOR, gotOnes := signature(head, tail)
	if gotXOR == wantXOR && uint16(gotOnes) == wantOnes {
		return Result{}, nil
	}
	parityChanged := byte(gotOnes&1) != wantParity
	if !parityChanged {
		// An even number (>= 2) of bits flipped: detectable, not correctable.
		return Result{}, fmt.Errorf("%w: even multi-bit error", ErrUncorrectable)
	}
	// A single flip: the syndrome equals the 1-based position of the bit.
	syndrome := gotXOR ^ wantXOR
	if syndrome == 0 || int(syndrome-1) >= (len(head)+len(tail))*8 {
		return Result{}, fmt.Errorf("%w: syndrome out of range", ErrUncorrectable)
	}
	pos := int(syndrome - 1)
	flipBit(head, tail, pos)
	// Verify the correction actually restored the signature; if not, more
	// than one bit differed.
	fixedXOR, fixedOnes := signature(head, tail)
	if fixedXOR != wantXOR || uint16(fixedOnes) != wantOnes {
		// Undo the speculative flip and report failure.
		flipBit(head, tail, pos)
		return Result{}, fmt.Errorf("%w: multi-bit error", ErrUncorrectable)
	}
	return Result{Corrected: 1}, nil
}

// flipBit inverts bit pos (0-based) of the region head followed by tail.
func flipBit(head, tail []byte, pos int) {
	seg := head
	if pos >= len(head)*8 {
		seg, pos = tail, pos-len(head)*8
	}
	seg[pos/8] ^= 1 << uint(pos%8)
}

// Blank reports whether code consists only of erased (0xFF) bytes, i.e. no
// ECC has been programmed into that OOB slot yet.
func Blank(code []byte) bool {
	for _, b := range code {
		if b != 0xFF {
			return false
		}
	}
	return true
}
