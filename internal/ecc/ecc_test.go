package ecc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	code := Encode(data)
	if len(code) != CodeSize {
		t.Fatalf("code size %d, want %d", len(code), CodeSize)
	}
	res, err := Decode(data, code)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if res.Corrected != 0 {
		t.Fatalf("clean data should need no correction, got %d", res.Corrected)
	}
}

func TestSingleBitCorrection(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+r.Intn(512))
		r.Read(data)
		code := Encode(data)
		orig := append([]byte(nil), data...)
		// Flip one random bit.
		pos := r.Intn(len(data) * 8)
		data[pos/8] ^= 1 << uint(pos%8)
		res, err := Decode(data, code)
		if err != nil {
			t.Fatalf("trial %d: Decode failed: %v", trial, err)
		}
		if res.Corrected != 1 {
			t.Fatalf("trial %d: corrected %d bits, want 1", trial, res.Corrected)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("trial %d: correction produced wrong data", trial)
		}
	}
}

func TestDoubleBitDetection(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	detected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 64+r.Intn(256))
		r.Read(data)
		code := Encode(data)
		p1 := r.Intn(len(data) * 8)
		p2 := r.Intn(len(data) * 8)
		for p2 == p1 {
			p2 = r.Intn(len(data) * 8)
		}
		data[p1/8] ^= 1 << uint(p1%8)
		data[p2/8] ^= 1 << uint(p2%8)
		if _, err := Decode(data, code); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("trial %d: unexpected error type %v", trial, err)
			}
			detected++
		}
	}
	if detected != trials {
		t.Fatalf("double-bit errors detected in %d/%d trials", detected, trials)
	}
}

func TestDecodeBadCode(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}, []byte{0}); !errors.Is(err, ErrBadCode) {
		t.Fatalf("expected ErrBadCode, got %v", err)
	}
}

func TestBlank(t *testing.T) {
	if !Blank([]byte{0xFF, 0xFF, 0xFF}) {
		t.Errorf("all-FF must be blank")
	}
	if Blank([]byte{0xFF, 0x00}) {
		t.Errorf("non-FF must not be blank")
	}
	// A real code is never all 0xFF for small regions.
	data := make([]byte, 256)
	for i := range data {
		data[i] = 0xFF
	}
	if Blank(Encode(data)) {
		t.Errorf("encoded code collides with the blank marker")
	}
}

func TestEncodeEmptyData(t *testing.T) {
	code := Encode(nil)
	if _, err := Decode(nil, code); err != nil {
		t.Fatalf("empty region should verify: %v", err)
	}
}

// TestRoundTripProperty: decoding unmodified data always succeeds with zero
// corrections, for arbitrary content.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		code := Encode(data)
		res, err := Decode(data, code)
		return err == nil && res.Corrected == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("round-trip property: %v", err)
	}
}

// TestSingleFlipProperty: any single bit flip in arbitrary data is corrected
// back to the original.
func TestSingleFlipProperty(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		bit := int(pos) % (len(data) * 8)
		code := Encode(data)
		orig := append([]byte(nil), data...)
		data[bit/8] ^= 1 << uint(bit%8)
		res, err := Decode(data, code)
		return err == nil && res.Corrected == 1 && bytes.Equal(data, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("single-flip property: %v", err)
	}
}

func BenchmarkEncode8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(data)
	}
}

func BenchmarkDecodeClean8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	code := Encode(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data, code); err != nil {
			b.Fatal(err)
		}
	}
}

// bitSignature is the original bit-at-a-time signature, kept as the oracle
// the word-parallel one must match exactly.
func bitSignature(data []byte) (posXOR uint32, ones uint64) {
	for i, b := range data {
		if b == 0 {
			continue
		}
		ones += uint64(bits.OnesCount8(b))
		base := uint32(i*8) + 1
		for bit := uint32(0); bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				posXOR ^= base + bit
			}
		}
	}
	return posXOR, ones
}

// checkSignature compares signature with the oracle on data, on every
// split of data into head and tail up to a few words deep, and on
// sub-slices starting at every offset of the first word.
func checkSignature(t *testing.T, data []byte) {
	t.Helper()
	wantXOR, wantOnes := bitSignature(data)
	for cut := 0; cut <= len(data) && cut <= 24; cut++ {
		gotXOR, gotOnes := signature(data[:cut], data[cut:])
		if gotXOR != wantXOR || gotOnes != wantOnes {
			t.Fatalf("len %d split at %d: signature (%#x, %d), oracle (%#x, %d)",
				len(data), cut, gotXOR, gotOnes, wantXOR, wantOnes)
		}
	}
	for start := 1; start < len(data) && start < 8; start++ {
		sub := data[start:]
		wantXOR, wantOnes := bitSignature(sub)
		if gotXOR, gotOnes := signature(sub, nil); gotXOR != wantXOR || gotOnes != wantOnes {
			t.Fatalf("len %d from %d: signature (%#x, %d), oracle (%#x, %d)",
				len(data), start, gotXOR, gotOnes, wantXOR, wantOnes)
		}
	}
}

func TestSignatureMatchesBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, r.Intn(9000))
		switch trial % 3 {
		case 0: // dense
			r.Read(data)
		case 1: // sparse
			for k := r.Intn(8); k > 0 && len(data) > 0; k-- {
				data[r.Intn(len(data))] = byte(1 << uint(r.Intn(8)))
			}
		case 2: // erased
			for i := range data {
				data[i] = 0xFF
			}
		}
		checkSignature(t, data)
	}
}

func FuzzSignature(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0x80, 1}, uint16(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 70), uint16(17))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		checkSignature(t, data)
		c := int(cut) % (len(data) + 1)
		head, tail := data[:c], data[c:]
		code := EncodeSplit(head, tail)
		if !bytes.Equal(code, Encode(data)) {
			t.Fatalf("EncodeSplit at %d differs from Encode", c)
		}
		if len(data) == 0 {
			return
		}
		// A single flip anywhere in the split region is corrected in place.
		bit := int(cut) % (len(data) * 8)
		orig := append([]byte(nil), data...)
		data[bit/8] ^= 1 << uint(bit%8)
		res, err := DecodeSplit(head, tail, code)
		if err != nil || res.Corrected != 1 || !bytes.Equal(data, orig) {
			t.Fatalf("flip of bit %d split at %d: corrected %d, err %v", bit, c, res.Corrected, err)
		}
	})
}

// goldenPattern is a fixed 8 KiB page image: a xorshift stream with a run
// of zero words and a run of erased bytes.
func goldenPattern() []byte {
	data := make([]byte, 8192)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x)
	}
	clear(data[1000:1200])
	for i := 5000; i < 5300; i++ {
		data[i] = 0xFF
	}
	return data
}

// TestEncodeGolden pins the on-flash code bytes: a change of the codec
// must not silently change what earlier device images hold.
func TestEncodeGolden(t *testing.T) {
	data := goldenPattern()
	for _, tc := range []struct {
		region []byte
		want   string
	}{
		{data, "27b70100688100"},
		{data[:8191], "24b70000658101"},
		{data[3:4099], "77190000b53c01"},
		{data[:12], "0d000000340000"},
	} {
		if got := hex.EncodeToString(Encode(tc.region)); got != tc.want {
			t.Errorf("Encode of %d bytes = %s, want %s", len(tc.region), got, tc.want)
		}
	}
	if got, want := EncodeSplit(data[:8000], data[8100:]), Encode(append(data[:8000:8000], data[8100:]...)); !bytes.Equal(got, want) {
		t.Errorf("EncodeSplit = %x, want %x", got, want)
	}
}

func BenchmarkSignature8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		signature(data, nil)
	}
}
