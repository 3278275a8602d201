//go:build amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package netmw

import (
	"io"
	"unsafe"
)

// On little-endian architectures the in-memory representation of a
// []float64 IS the wire format, so encode and decode are single bulk
// copies (memmove runs at memory bandwidth; the element loop does not).
// The equivalence with the portable loop is pinned bit-for-bit by
// TestFloatCodecEquivalence, which CI runs under the race detector.

// rawBytes views fs as its in-memory (= wire) bytes.
func rawBytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), 8*len(fs))
}

// putFloats appends the raw little-endian encoding of fs to buf.
func putFloats(buf []byte, fs []float64) []byte {
	return append(buf, rawBytes(fs)...)
}

// writeFloats writes fs to w in one Write, straight from its memory.
func writeFloats(w io.Writer, fs []float64) error {
	_, err := w.Write(rawBytes(fs))
	return err
}

// readFloats fills dst from r, straight into its memory.
func readFloats(r io.Reader, dst []float64) error {
	_, err := io.ReadFull(r, rawBytes(dst))
	return err
}

// getFloatsInto decodes len(dst) doubles from buf into dst; the caller
// has already checked that buf is long enough. buf may be arbitrarily
// aligned — copy tolerates that, only dst must be a real []float64.
func getFloatsInto(dst []float64, buf []byte) {
	copy(rawBytes(dst), buf[:8*len(dst)])
}

// blockArena is empty here: a block's wire bytes are its memory, so a
// gathered write points its iovec at the block itself.
type blockArena struct{}

func (blockArena) reset(int) {}

func (blockArena) wire(blk []float64) []byte { return rawBytes(blk) }

// read fills blk from r straight into its memory and returns its wire
// bytes (that memory).
func (blockArena) read(r io.Reader, blk []float64) ([]byte, error) {
	bs := rawBytes(blk)
	_, err := io.ReadFull(r, bs)
	return bs, err
}
