// matlabserver is the paper's motivating scenario (§1): a compute server
// (think of a MATLAB or SCILAB session) holds the matrices and offloads
// C ← C + A·B to worker goroutines with limited memory, moving real data
// through the one-port master. The result is verified against a local
// reference product.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/pkg/matmul"
)

func main() {
	const (
		q       = 64
		n       = 768 // matrices are n×n
		workers = 4
		memMB   = 8 // deliberately tight: forces chunked scheduling
	)

	// The "client session" produces the operands.
	ad := matmul.NewDense(n, n)
	bd := matmul.NewDense(n, n)
	cd := matmul.NewDense(n, n)
	matmul.DeterministicFill(ad, 1)
	matmul.DeterministicFill(bd, 2)
	matmul.DeterministicFill(cd, 3)

	// Reference result for verification.
	ref := cd.Clone()
	matmul.MulReference(ref, ad, bd)

	a := matmul.Partition(ad, q)
	b := matmul.Partition(bd, q)
	c := matmul.Partition(cd, q)

	m := matmul.MemoryBlocks(memMB<<20, q)
	fmt.Printf("offloading %dx%d product to %d workers (m=%d blocks)\n", n, n, workers, m)

	start := time.Now()
	res, err := matmul.MultiplyLocal(c, a, b, matmul.LocalConfig{
		Workers: workers, Memory: m,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: %d blocks through the master port, %d block updates\n",
		time.Since(start), res.Blocks, res.Updates)

	got := c.Assemble()
	if diff := got.MaxDiff(ref); diff > 1e-9 {
		log.Fatalf("verification failed: max |C - ref| = %g", diff)
	}
	fmt.Println("verification OK: offloaded product matches the local reference")
}
