package netmw

import (
	"io"
	"slices"

	"repro/internal/matrix"
)

// Float payloads are raw little-endian IEEE-754 doubles, in the one
// encoding internal/matrix defines for every float the repository frames
// or persists.

// EncodeFloats appends fs in wire encoding (matrix.AppendFloats).
func EncodeFloats(buf []byte, fs []float64) []byte { return matrix.AppendFloats(buf, fs) }

// DecodeFloatsInto decodes len(dst) doubles in wire encoding
// (matrix.DecodeFloatsInto).
func DecodeFloatsInto(dst []float64, buf []byte) { matrix.DecodeFloatsInto(dst, buf) }

// blockArena holds the wire copies of one frame's blocks where a block's
// memory is not its wire encoding. Where it is (matrix.FloatsView, every
// little-endian build) the arena stays empty and a block's wire bytes
// are its memory, so a gathered write points its iovec at the block
// itself and a read lands straight in it.
type blockArena struct{ buf []byte }

// reset starts a frame. The slices wire hands out stay valid until the
// next reset: growing the arena moves later copies, never earlier ones.
func (a *blockArena) reset() { a.buf = a.buf[:0] }

// wire returns blk's wire bytes.
func (a *blockArena) wire(blk []float64) []byte {
	if bs, ok := matrix.FloatsView(blk); ok {
		return bs
	}
	off := len(a.buf)
	a.buf = matrix.AppendFloats(a.buf, blk)
	return a.buf[off:]
}

// read fills blk from r and returns the wire bytes it read (blk's memory,
// or the arena's copy until the next use).
func (a *blockArena) read(r io.Reader, blk []float64) ([]byte, error) {
	bs, view := matrix.FloatsView(blk)
	if !view {
		a.buf = slices.Grow(a.buf[:0], 8*len(blk))[:8*len(blk)]
		bs = a.buf
	}
	if _, err := io.ReadFull(r, bs); err != nil {
		return nil, err
	}
	if !view {
		matrix.DecodeFloatsInto(blk, bs)
	}
	return bs, nil
}
