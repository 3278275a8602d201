package netmw

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// writeMsgHeader writes the frame header of an n-byte payload the caller
// streams after it.
func writeMsgHeader(w io.Writer, t MsgType, n int) error {
	var hdr [msgHeaderLen]byte
	putMsgHeader(hdr[:], t, n)
	_, err := w.Write(hdr[:])
	return err
}

// waitCond polls f until it returns true or the deadline passes; on
// timeout it dumps the cluster state for post-mortem.
func waitCond(t *testing.T, cl *cluster.Cluster, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !f() {
		if time.Now().After(deadline) {
			st := cl.ClusterStats()
			t.Logf("stats: %+v", st)
			for _, w := range cl.Workers() {
				t.Logf("worker %s: dead=%v inflight=%d done=%d dirty=%d profile=%+v",
					w.ID, w.Dead, w.Inflight, w.Done, w.DirtyBlocks, w.Profile)
			}
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// jobsArrived reports whether at least n jobs were submitted to cl.
func jobsArrived(cl *cluster.Cluster, n int) func() bool {
	return func() bool { return len(cl.Jobs()) >= n }
}

// links records every worker session's server-side transport by worker
// name (ClusterServerConfig.WrapTransport), so a test can drop a
// worker's connection the way a network fault does: the server's
// feeder sees its transport die and declares the incarnation lost.
type links struct {
	mu  sync.Mutex
	cur map[string]*link // the latest session of each worker
}

// link is one session's transport, severable from the test. A frame
// that was already read when the link was cut dies with it.
type link struct {
	engine.Transport
	cut atomic.Bool
}

func (l *link) Recv() (engine.Msg, error) {
	m, err := l.Transport.Recv()
	if l.cut.Load() {
		return nil, engine.ErrClosed
	}
	return m, err
}

// wrap records tr as name's current link; use it as (or inside) a
// WrapTransport.
func (ls *links) wrap(name string, tr engine.Transport) engine.Transport {
	l := &link{Transport: tr}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.cur == nil {
		ls.cur = make(map[string]*link)
	}
	ls.cur[name] = l
	return l
}

// sever drops name's current connection.
func (ls *links) sever(t *testing.T, name string) {
	t.Helper()
	ls.mu.Lock()
	l := ls.cur[name]
	ls.mu.Unlock()
	if l == nil {
		t.Fatalf("worker %q has no session to sever", name)
	}
	l.cut.Store(true)
	l.Close()
}
