package matrix

import (
	"encoding/binary"
	"io"
	"math"
)

// Every float the repository frames or persists — wire payloads, journal
// records, out-of-core block files — is a raw little-endian IEEE-754
// double. Two implementations exist: the portable per-element loop below
// (the format's definition, always compiled so the equivalence property
// test can pin the fast path against it), and a bulk reinterpretation
// for little-endian architectures (floats_le.go) that moves whole blocks
// with one copy, so bandwidth, not loop overhead, is the limit.
// Big-endian builds fall back to the loop (floats_generic.go).
// WriteFloats/ReadFloats are the same pair over a stream, so a caller
// never assembles a buffer of floats it only passes on.

// AppendFloatsPortable appends the little-endian encoding of fs to buf,
// one element at a time. This loop is the normative definition of the
// float encoding.
func AppendFloatsPortable(buf []byte, fs []float64) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(fs))...)
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(f))
	}
	return buf
}

// DecodeFloatsPortableInto decodes len(dst) doubles from buf into dst,
// one element at a time; the caller has already checked that buf is
// long enough.
func DecodeFloatsPortableInto(dst []float64, buf []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// writeFloatsPortable writes the little-endian encoding of fs to w.
func writeFloatsPortable(w io.Writer, fs []float64) error {
	_, err := w.Write(AppendFloatsPortable(nil, fs))
	return err
}

// readFloatsPortable fills dst with len(dst) doubles read from r.
func readFloatsPortable(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	DecodeFloatsPortableInto(dst, buf)
	return nil
}
