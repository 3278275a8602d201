package netmw

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutines fails the test when goroutines it started outlive it:
// once every Close the test defers or registers has run, the count must
// settle back to what it was when checkGoroutines was called, within a
// bounded wait (closed sessions unwind asynchronously). A leaked reader
// or writer then fails here, with every stack dumped, instead of
// surfacing in a soak. Call it before anything registers a Close, so its
// cleanup runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines left after Close, %d before the test started:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
