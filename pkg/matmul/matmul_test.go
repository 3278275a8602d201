package matmul

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func utk8(memMB int) *Platform {
	c, w := UTKCalibration().BlockCosts(80)
	return HomogeneousPlatform(8, c, w, MemoryBlocks(int64(memMB)<<20, 80))
}

func TestNewProblem(t *testing.T) {
	pr, err := NewProblem(8000, 8000, 64000, 80)
	if err != nil {
		t.Fatal(err)
	}
	if pr.R != 100 || pr.S != 800 {
		t.Fatalf("%+v", pr)
	}
	if _, err := NewProblem(81, 80, 80, 80); err == nil {
		t.Fatal("indivisible accepted")
	}
}

func TestBounds(t *testing.T) {
	b := Bounds(10000)
	if b.Mu != 99 {
		t.Fatalf("µ = %d", b.Mu)
	}
	if !(b.IronyToledo < b.ToledoLemma && b.ToledoLemma < b.LoomisWhitney && b.LoomisWhitney < b.MaxReuseCCR) {
		t.Fatalf("bound ordering: %+v", b)
	}
}

func TestMus(t *testing.T) {
	// µ² + 4µ ≤ m: 21 blocks hold µ = 3, and 32 is the least m for µ = 4.
	if MuOverlap(21) != 3 || MuOverlap(31) != 3 || MuOverlap(32) != 4 {
		t.Fatal("overlapped layout µ wrong")
	}
}

func TestSimulateHoLM(t *testing.T) {
	pr, _ := NewProblem(8000, 8000, 64000, 80)
	tr := &Trace{}
	res, err := Simulate(HoLM, utk8(512), pr, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enrolled != 4 {
		t.Fatalf("enrolled %d", res.Enrolled)
	}
	if tr.Makespan() <= 0 {
		t.Fatal("no trace")
	}
}

func TestSimulateAll(t *testing.T) {
	pr := Problem{R: 10, S: 20, T: 5, Q: 80}
	rs, err := SimulateAll(utk8(512), pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 7 {
		t.Fatalf("%d results", len(rs))
	}
	for _, r := range rs {
		if r.Updates != pr.Updates() {
			t.Fatalf("%s lost work", r.Algorithm)
		}
	}
}

func TestSimulateHeterogeneous(t *testing.T) {
	pl := NewPlatform(
		Worker{C: 2, W: 2, M: 60},
		Worker{C: 3, W: 3, M: 396},
		Worker{C: 5, W: 1, M: 140},
	)
	pr := Problem{R: 36, S: 36, T: 6, Q: 80}
	for _, rule := range []HeteroRule{Global, Local, TwoStep} {
		res, err := SimulateHeterogeneous(pl, pr, rule, nil)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if res.Updates != pr.Updates() {
			t.Fatalf("%v lost work", rule)
		}
	}
}

func TestSteadyStateThroughput(t *testing.T) {
	pl := NewPlatform(
		Worker{C: 2, W: 2, M: 60},
		Worker{C: 3, W: 3, M: 396},
		Worker{C: 5, W: 1, M: 140},
	)
	rho, feasible, err := SteadyStateThroughput(pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1.3889) > 0.001 {
		t.Fatalf("ρ = %v", rho)
	}
	if feasible {
		t.Fatal("Table 2 platform should be buffer-infeasible")
	}
}

func buildBlocked(t *testing.T, r, tt, s, q int) (a, b, c, want *Blocked) {
	t.Helper()
	ad := NewDense(r*q, tt*q)
	bd := NewDense(tt*q, s*q)
	cd := NewDense(r*q, s*q)
	DeterministicFill(ad, 1)
	DeterministicFill(bd, 2)
	DeterministicFill(cd, 3)
	ref := cd.Clone()
	MulReference(ref, ad, bd)
	return Partition(ad, q), Partition(bd, q), Partition(cd, q), Partition(ref, q)
}

func TestMultiplyLocal(t *testing.T) {
	a, b, c, want := buildBlocked(t, 6, 4, 6, 8)
	res, err := MultiplyLocal(c, a, b, LocalConfig{Workers: 3, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if res.Updates != 6*4*6 {
		t.Fatalf("updates %d", res.Updates)
	}
	if res.Enrolled < 1 || res.Enrolled > 3 || res.Blocks == 0 {
		t.Fatalf("enrolled %d workers, %d blocks through the port", res.Enrolled, res.Blocks)
	}
}

func TestMultiplyLocalMemoryDerivesMu(t *testing.T) {
	a, b, c, want := buildBlocked(t, 4, 2, 4, 8)
	// Memory 21 blocks → µ = 3 via MuOverlap
	if _, err := MultiplyLocal(c, a, b, LocalConfig{Workers: 2, Memory: 21}); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
}

func TestFactorLU(t *testing.T) {
	n := 32
	a := NewDense(n, n)
	DeterministicFill(a, 4)
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(n)+2)
	}
	if err := FactorLU(a, 8); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateLU(t *testing.T) {
	res, err := SimulateLU(utk8(512), 196, 49, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "LU" || res.Makespan <= 0 {
		t.Fatalf("%+v", res)
	}
}

// TestTCPRoundTrip runs one product over loopback TCP the one way the
// library offers: a served cluster, two workers joining it, and a
// client submitting the job. The result must be exact, and both workers
// must leave cleanly on the server's goodbye.
func TestTCPRoundTrip(t *testing.T) {
	a, b, c, want := buildBlocked(t, 4, 3, 4, 8)
	cl := NewCluster(ClusterConfig{HeartbeatTimeout: time.Hour})
	defer cl.Close()
	svc, err := ServeClusterTCP(cl, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	workers := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			workers <- WorkClusterTCP(svc.Addr(), ClusterWorkerOptions{
				Name: fmt.Sprintf("w%d", i), MemoryBlocks: 100,
			})
		}()
	}
	// Submit only once both workers have joined: a job one worker can
	// finish alone would otherwise let the server close on the other
	// mid-handshake, or before it has dialed at all.
	waitCond(t, "the workers to join", func() bool { return len(cl.Workers()) >= 2 })
	if err := SubmitMatMulTCP(svc.Addr(), c, a, b, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product over TCP")
	}
	cl.Close()
	svc.Close()
	for i := 0; i < 2; i++ {
		if err := <-workers; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	var shipped int64
	for _, w := range cl.Workers() {
		shipped += w.BlocksShipped
	}
	if shipped == 0 {
		t.Fatal("no transfer accounting")
	}
}

// waitCond polls f until it returns true, failing the test after a
// minute.
func waitCond(t *testing.T, what string, f func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !f(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
