package netmw

import (
	"encoding/binary"
	"io"
	"math"
)

// Float payloads are raw little-endian IEEE-754 doubles. Two
// implementations exist: the portable per-element loop below (the wire
// format's definition, always compiled so the equivalence property test
// can pin the fast path against it), and a bulk reinterpretation for
// little-endian architectures (floats_le.go) that moves whole blocks
// with one copy — the fast wire path that makes encode/decode
// bandwidth, not loop overhead, the limit. Big-endian builds fall back
// to the loop (floats_generic.go). writeFloats/readFloats are the same
// pair over a stream: the client hop never assembles a frame buffer.

// putFloatsPortable appends the little-endian encoding of fs to buf,
// one element at a time. This loop is the normative definition of the
// float wire format.
func putFloatsPortable(buf []byte, fs []float64) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(fs))...)
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(f))
	}
	return buf
}

// getFloatsPortableInto decodes len(dst) doubles from buf into dst; the
// caller has already checked that buf is long enough.
func getFloatsPortableInto(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// writeFloatsPortable writes the little-endian encoding of fs to w.
func writeFloatsPortable(w io.Writer, fs []float64) error {
	_, err := w.Write(putFloatsPortable(nil, fs))
	return err
}

// readFloatsPortable fills dst with len(dst) doubles read from r.
func readFloatsPortable(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	getFloatsPortableInto(dst, buf)
	return nil
}

// EncodeFloats, EncodeFloatsPortable, DecodeFloatsInto and
// DecodeFloatsPortableInto expose the two codec paths for the
// benchmark harness (BenchmarkTransportCodec tracks the bulk path's
// speedup in BENCH_transport.json); production code uses the
// unexported names.

// EncodeFloats appends fs in wire encoding via the fast path.
func EncodeFloats(buf []byte, fs []float64) []byte { return putFloats(buf, fs) }

// EncodeFloatsPortable appends fs via the portable loop.
func EncodeFloatsPortable(buf []byte, fs []float64) []byte { return putFloatsPortable(buf, fs) }

// DecodeFloatsInto decodes len(dst) doubles via the fast path.
func DecodeFloatsInto(dst []float64, buf []byte) { getFloatsInto(dst, buf) }

// DecodeFloatsPortableInto decodes len(dst) doubles via the portable loop.
func DecodeFloatsPortableInto(dst []float64, buf []byte) { getFloatsPortableInto(dst, buf) }
