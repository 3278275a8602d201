//go:build !(amd64 || 386 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package matrix

import "io"

// Big-endian (or unknown) architectures use the portable per-element
// loop: the encoding stays little-endian everywhere.

func FloatsView([]float64) ([]byte, bool) { return nil, false }

func AppendFloats(buf []byte, fs []float64) []byte { return AppendFloatsPortable(buf, fs) }

func DecodeFloatsInto(dst []float64, buf []byte) { DecodeFloatsPortableInto(dst, buf) }

func WriteFloats(w io.Writer, fs []float64) error { return writeFloatsPortable(w, fs) }

func ReadFloats(r io.Reader, dst []float64) error { return readFloatsPortable(r, dst) }
