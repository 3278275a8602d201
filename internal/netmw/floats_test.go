package netmw

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestFloatCodecEquivalence pins the bulk little-endian float path
// bit-identical to the portable per-element loop — the loop is the wire
// format's definition, the bulk path is an optimization and may never
// diverge from it. The property runs across sizes (empty through
// several blocks), byte offsets (the decode source is arbitrarily
// aligned inside a frame) and hostile bit patterns (NaN payloads,
// signed zeros, infinities, subnormals), and covers the stream pair
// (writeFloats/readFloats) the client hop moves matrices with. CI runs
// it under the race detector alongside the engine conformance suite.
func TestFloatCodecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []uint64{
		0, 1, math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), 0x7FF0000000000001, // signaling-style NaN payload
		0xFFFFFFFFFFFFFFFF, 0x0000000000000001, // quiet-NaN-with-payload, subnormal
	}
	sizes := []int{0, 1, 2, 3, 7, 8, 63, 64, 100, 576, 577, 1024}
	for _, n := range sizes {
		fs := make([]float64, n)
		for i := range fs {
			if i < len(special) {
				fs[i] = math.Float64frombits(special[i])
			} else {
				fs[i] = math.Float64frombits(rng.Uint64())
			}
		}

		// Stream equivalence: the same bytes out, the same bits back, and
		// a short stream is an error on both paths.
		want := putFloatsPortable(nil, fs)
		var fastW, slowW bytes.Buffer
		if err := writeFloats(&fastW, fs); err != nil {
			t.Fatal(err)
		}
		if err := writeFloatsPortable(&slowW, fs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fastW.Bytes(), want) || !bytes.Equal(slowW.Bytes(), want) {
			t.Fatalf("n=%d: streamed encodings differ from the portable definition", n)
		}
		sFast, sSlow := make([]float64, n), make([]float64, n)
		if err := readFloats(bytes.NewReader(want), sFast); err != nil {
			t.Fatal(err)
		}
		if err := readFloatsPortable(bytes.NewReader(want), sSlow); err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			if math.Float64bits(sFast[i]) != math.Float64bits(fs[i]) || math.Float64bits(sSlow[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("n=%d: streamed element %d did not round-trip", n, i)
			}
		}
		if n > 0 {
			if readFloats(bytes.NewReader(want[:len(want)-1]), sFast) == nil ||
				readFloatsPortable(bytes.NewReader(want[:len(want)-1]), sSlow) == nil {
				t.Fatalf("n=%d: short stream read without error", n)
			}
		}

		// Encode equivalence, including appending after an arbitrary
		// non-8-aligned prefix.
		for _, prefix := range []int{0, 1, 5, 13} {
			pre := make([]byte, prefix)
			rng.Read(pre)
			fast := putFloats(append([]byte(nil), pre...), fs)
			slow := putFloatsPortable(append([]byte(nil), pre...), fs)
			if len(fast) != len(slow) {
				t.Fatalf("n=%d prefix=%d: fast encodes %d bytes, portable %d", n, prefix, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("n=%d prefix=%d: encoded byte %d differs: %#x != %#x", n, prefix, i, fast[i], slow[i])
				}
			}

			// Decode equivalence from the (offset, hence arbitrarily
			// aligned) encoded bytes.
			dFast := make([]float64, n)
			dSlow := make([]float64, n)
			getFloatsInto(dFast, fast[prefix:])
			getFloatsPortableInto(dSlow, slow[prefix:])
			for i := range dFast {
				if math.Float64bits(dFast[i]) != math.Float64bits(dSlow[i]) {
					t.Fatalf("n=%d prefix=%d: decoded element %d differs: %#x != %#x",
						n, prefix, i, math.Float64bits(dFast[i]), math.Float64bits(dSlow[i]))
				}
				if math.Float64bits(dFast[i]) != math.Float64bits(fs[i]) {
					t.Fatalf("n=%d prefix=%d: element %d did not round-trip: %#x != %#x",
						n, prefix, i, math.Float64bits(dFast[i]), math.Float64bits(fs[i]))
				}
			}
		}
	}
}

// TestGetFloatsShort pins the bounds check of the getFloats wrapper.
func TestGetFloatsShort(t *testing.T) {
	buf := putFloats(nil, []float64{1, 2, 3})
	if _, _, err := getFloats(buf, 4); err == nil {
		t.Fatal("short float payload accepted")
	}
	fs, rest, err := getFloats(buf, 2)
	if err != nil || len(fs) != 2 || len(rest) != 8 {
		t.Fatalf("getFloats: fs=%v rest=%d err=%v", fs, len(rest), err)
	}
}
