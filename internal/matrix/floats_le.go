//go:build amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package matrix

import (
	"io"
	"unsafe"
)

// On little-endian architectures the in-memory representation of a
// []float64 IS the encoding, so encode and decode are single bulk
// copies (memmove runs at memory bandwidth; the element loop does not).
// The equivalence with the portable loop is pinned bit-for-bit by
// TestFloatCodecEquivalence, which CI runs under the race detector.

// rawBytes views fs as its in-memory (= encoded) bytes.
func rawBytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), 8*len(fs))
}

// FloatsView returns the encoding of fs as a view of fs's own memory —
// no copy, and writes through it change fs — and true. Where memory is
// not the encoding it returns nil and false.
func FloatsView(fs []float64) ([]byte, bool) { return rawBytes(fs), true }

// AppendFloats appends the little-endian encoding of fs to buf.
func AppendFloats(buf []byte, fs []float64) []byte {
	return append(buf, rawBytes(fs)...)
}

// DecodeFloatsInto decodes len(dst) doubles from buf into dst; the
// caller has already checked that buf is long enough. buf may be
// arbitrarily aligned — copy tolerates that, only dst must be a real
// []float64.
func DecodeFloatsInto(dst []float64, buf []byte) {
	copy(rawBytes(dst), buf[:8*len(dst)])
}

// WriteFloats writes fs to w in one Write, straight from its memory.
func WriteFloats(w io.Writer, fs []float64) error {
	_, err := w.Write(rawBytes(fs))
	return err
}

// ReadFloats fills dst from r, straight into its memory.
func ReadFloats(r io.Reader, dst []float64) error {
	_, err := io.ReadFull(r, rawBytes(dst))
	return err
}
