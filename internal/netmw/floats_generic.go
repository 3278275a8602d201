//go:build !(amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package netmw

import "io"

// Big-endian (or unknown) architectures use the portable per-element
// loop: the wire stays little-endian everywhere.

func putFloats(buf []byte, fs []float64) []byte { return putFloatsPortable(buf, fs) }

func getFloatsInto(dst []float64, buf []byte) { getFloatsPortableInto(dst, buf) }

func writeFloats(w io.Writer, fs []float64) error { return writeFloatsPortable(w, fs) }

func readFloats(r io.Reader, dst []float64) error { return readFloatsPortable(r, dst) }
