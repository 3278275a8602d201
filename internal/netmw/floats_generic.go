//go:build !(amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package netmw

import "io"

// Big-endian (or unknown) architectures use the portable per-element
// loop: the wire stays little-endian everywhere.

func putFloats(buf []byte, fs []float64) []byte { return putFloatsPortable(buf, fs) }

func getFloatsInto(dst []float64, buf []byte) { getFloatsPortableInto(dst, buf) }

func writeFloats(w io.Writer, fs []float64) error { return writeFloatsPortable(w, fs) }

func readFloats(r io.Reader, dst []float64) error { return readFloatsPortable(r, dst) }

// blockArena holds the wire copies of one frame's blocks: here memory
// is not the wire format, so a gathered write sends encoded copies.
// reset sizes it for the whole frame up front, so the slices wire hands
// out stay valid until the frame is written.
type blockArena struct{ buf []byte }

func (a *blockArena) reset(n int) {
	if cap(a.buf) < n {
		a.buf = make([]byte, 0, n)
	}
	a.buf = a.buf[:0]
}

func (a *blockArena) wire(blk []float64) []byte {
	off := len(a.buf)
	a.buf = putFloatsPortable(a.buf, blk)
	return a.buf[off:]
}

// read fills blk from r through the arena, decoding with the portable
// loop, and returns the wire bytes (valid until the next use).
func (a *blockArena) read(r io.Reader, blk []float64) ([]byte, error) {
	a.reset(8 * len(blk))
	bs := a.buf[:8*len(blk)]
	if _, err := io.ReadFull(r, bs); err != nil {
		return nil, err
	}
	getFloatsPortableInto(blk, bs)
	return bs, nil
}
