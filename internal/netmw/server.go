package netmw

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// ClusterServerConfig configures the TCP face of a cluster service.
type ClusterServerConfig struct {
	Addr string // listen address (":0" for tests)
	// ExpiryEvery is the cadence of heartbeat-expiry sweeps; 0 disables
	// them (connection drops still trigger immediate recovery, which is
	// what deterministic tests rely on).
	ExpiryEvery time.Duration
	// WrapTransport, when set, wraps every worker session's transport —
	// the fault-injection seam. The wrapper sees the same engine messages
	// the feeder exchanges with the worker, keyed by the worker's
	// registered name so a test can target one machine's traffic; tests
	// use it to drop, delay, duplicate or corrupt on a seeded schedule.
	WrapTransport func(name string, tr engine.Transport) engine.Transport
}

// ClusterServer accepts cluster workers and job submissions over TCP and
// drives a cluster.Cluster. One connection is one role: a worker
// (MsgRegister first) or a submitting client (MsgSubmit first).
type ClusterServer struct {
	cl   *cluster.Cluster
	ln   net.Listener
	cfg  ClusterServerConfig
	pool *engine.BlockPool // the cluster's pool, shared by all sessions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// ServeCluster starts the TCP service on cfg.Addr and returns immediately.
func ServeCluster(cl *cluster.Cluster, cfg ClusterServerConfig) (*ClusterServer, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("netmw: cluster listen: %w", err)
	}
	s := &ClusterServer{
		cl: cl, ln: ln, cfg: cfg,
		pool:  cl.BlockPool(),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.ExpiryEvery > 0 {
		s.wg.Add(1)
		go s.expiryLoop()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *ClusterServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and shuts the sessions down. When the underlying
// cluster was closed first (the graceful order), worker sessions exit on
// their own after sending Bye; Close gives them a short drain window
// before force-closing whatever connections remain, so workers see a
// clean goodbye instead of a reset and don't burn their reconnect budget.
// The cluster itself is left to its owner.
func (s *ClusterServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	err := s.ln.Close()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *ClusterServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *ClusterServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

func (s *ClusterServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *ClusterServer) expiryLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.ExpiryEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.cl.CheckExpiry()
		}
	}
}

// hopBuf sizes the server's read buffer of the client hop: submitted
// blocks at or above it (q ≥ 91) move straight from the socket into
// block memory.
const hopBuf = 64 << 10

// handle dispatches one connection by its first message, read unbuffered
// so each role picks its own buffering.
func (s *ClusterServer) handle(conn net.Conn) {
	var hdr [msgHeaderLen]byte
	t, n, err := readMsgHeader(conn, &hdr)
	if err != nil {
		return
	}
	switch t {
	case MsgRegister:
		r := bufio.NewReaderSize(conn, connBuf)
		payload, err := readPayload(r, n)
		if err != nil {
			return
		}
		var ri RegisterInfo
		if err := ri.decode(payload); err != nil {
			return
		}
		if ri.Version != ProtocolVersion {
			// Refused at join, not hung mid-task: the Bye names the
			// master's version, and a worker too old to read it still
			// takes it as a goodbye and stops dialling.
			reason := fmt.Sprintf("worker %q speaks protocol version %d, this master %d", ri.Name, ri.Version, ProtocolVersion)
			log.Printf("netmw: refused: %v: %s", ErrProtocolVersion, reason)
			conn.Write(refusalFrame(reason))
			return
		}
		s.workerSession(conn, r, ri)
	case MsgSubmit:
		s.clientSession(bufio.NewReaderSize(conn, hopBuf), conn, n)
	}
}

// workerSession drives one registered worker through the engine's
// feeder: the transport frames tasks/sets/results and consumes
// heartbeats, engine.RunFeeder keeps up to the worker's advertised
// Slots tasks in flight and pushes each task's update sets behind it,
// and the worker's cluster.Session (the same feed the
// in-process local worker runs) is the scheduler. A connection error at
// any point declares the incarnation lost, which requeues every task it
// held; a reconnect replaces it, and this session can then act on the
// worker no more.
func (s *ClusterServer) workerSession(conn net.Conn, r *bufio.Reader, ri RegisterInfo) {
	slots := int(ri.Slots) // JoinWorker and RunFeeder read 0 as 1
	sess, err := s.cl.JoinWorker(ri.Name, int(ri.Mem), slots)
	if err != nil {
		return
	}
	tr := newServerTransport(conn, r, s.pool, sess.Heartbeat)
	var link engine.Transport = tr
	if s.cfg.WrapTransport != nil {
		link = s.cfg.WrapTransport(ri.Name, tr)
	}
	began := time.Now()
	comm, ferr := engine.RunFeeder(link, sess, engine.FeederConfig{
		Slots: slots, Pool: s.pool, Mem: int(ri.Mem),
	})
	// RunFeeder has returned, so no Send can be reading a Set of this
	// session anymore: close it. One report per session, at teardown, so
	// reconnects never double-count a byte. A checksum mismatch on this
	// worker's bulk payloads is transport corruption, not a compute
	// fault: it is counted against the worker (no strike) and the
	// reconnect/requeue machinery resends the work; Freivalds failures on
	// CRC-clean tiles are what strike the worker.
	ws := tr.Stats()
	sess.Close(cluster.SessionReport{
		Comm:    comm,
		WireOut: ws.BytesOut, WireIn: ws.BytesIn, Elapsed: time.Since(began),
		TransportFault: errors.Is(ferr, ErrPayloadCRC),
	})
}

// clientSession serves one MsgSubmit whose n-byte payload is still on
// the wire: stream the operands in from r, run the job to completion,
// write the result blocks (or the error) to w. A keyed submission is
// idempotent: when the key names an already-accepted job (including one
// recovered from the journal after a restart) the session attaches to
// it instead of starting a duplicate, and the reply carries the
// canonical result held by the cluster, not this resubmission's.
func (s *ClusterServer) clientSession(r io.Reader, w io.Writer, n int) {
	// A reply that cannot be written has no one left to read it: the
	// client's own read fails and its retry policy takes over.
	fail := func(job cluster.JobID, err error) {
		msg := err.Error()
		w.Write(append(jobDoneHead(job, 1, len(msg)), msg...))
	}
	body := &io.LimitedReader{R: r, N: int64(n)}
	spec, key, err := readSubmission(body, n, s.pool)
	if err != nil {
		// Take a refused job's unread operands off the wire so the peer
		// reads the reason, not a reset; a truncated frame has no peer.
		if _, derr := io.Copy(io.Discard, body); derr == nil && body.N == 0 {
			fail(0, err)
		}
		return
	}
	id, _, err := s.cl.SubmitJobKeyed(key, spec)
	if err != nil {
		// A master going down hangs up instead of answering: a definitive
		// job-failure reply would stop a durable client's retry loop, but
		// shutdown is exactly the transient fault that loop exists for.
		// The journal preserves the job; the resubmitted key resumes it.
		if !errors.Is(err, cluster.ErrClosed) {
			fail(0, err)
		}
		return
	}
	// However this session ends, an unkeyed job's result has no reader left.
	defer s.cl.ForgetResult(id)
	done, err := s.cl.Done(id)
	if err != nil {
		fail(id, err)
		return
	}
	select {
	case <-done:
	case <-s.stop:
		return // shutting down: hang up, the client retries elsewhere
	}
	res, err := s.cl.JobResult(id)
	if err != nil {
		if !errors.Is(err, cluster.ErrClosed) {
			fail(id, err)
		}
		return
	}
	writeGathered(w, jobDoneHead(id, 0, blockedBytes(res)), res)
}

// jobDoneHead builds the head of a MsgJobDone frame — frame header and
// JobDoneHeader — whose body, n bytes of result blocks or error text,
// follows it.
func jobDoneHead(job cluster.JobID, code uint32, n int) []byte {
	head := make([]byte, msgHeaderLen+jobDoneHeaderLen)
	putMsgHeader(head, MsgJobDone, jobDoneHeaderLen+n)
	(&JobDoneHeader{Job: uint32(job), Code: code}).encode(head[msgHeaderLen:])
	return head
}

func blockedBytes(m *matrix.Blocked) int { return len(m.Blocks) * m.Q * m.Q * 8 }

// writeGathered writes head and then every block of each matrix, in
// row-major block order, as one gathered write (writev on TCP): a
// block's bytes are a view of its memory, or the arena's copy where
// memory is not the wire format, so no payload is copied in user space
// on little-endian builds.
func writeGathered(w io.Writer, head []byte, ms ...*matrix.Blocked) error {
	var arena blockArena
	iov := net.Buffers{head}
	for _, m := range ms {
		for _, b := range m.Blocks {
			iov = append(iov, arena.wire(b.Data))
		}
	}
	_, err := iov.WriteTo(w)
	return err
}

// readSubmission streams the n-byte payload of a MsgSubmit from r into a
// pooled JobSpec, plus the client's idempotency key. Every block is read
// straight into its final buffer, taken from the pool only when its
// bytes are next on the wire: a hostile header never provokes more
// allocation than the bytes that arrived plus one block.
func readSubmission(r io.Reader, n int, pool *engine.BlockPool) (cluster.JobSpec, uint64, error) {
	raw := make([]byte, min(n, jobHeaderLen))
	if _, err := io.ReadFull(r, raw); err != nil {
		return cluster.JobSpec{}, 0, err
	}
	var hdr JobHeader
	if err := hdr.decode(raw); err != nil {
		return cluster.JobSpec{}, 0, err
	}
	rest := uint64(n - jobHeaderLen)
	rd, t, sd, q := int(hdr.R), int(hdr.T), int(hdr.S), int(hdr.Q)
	if rd < 1 || t < 1 || sd < 1 || q < 1 ||
		rd > maxWireDim || t > maxWireDim || sd > maxWireDim || q > maxWireDim {
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: bad job dimensions %dx%dx%d q=%d", rd, t, sd, q)
	}
	spec := cluster.JobSpec{Mu: int(hdr.Mu), Pooled: true}
	type operand struct {
		dst    **matrix.Blocked
		br, bc int
	}
	var operands []operand
	switch hdr.Kind {
	case WireMatMul:
		spec.Kind = cluster.MatMul
		operands = []operand{{&spec.C, rd, sd}, {&spec.A, rd, t}, {&spec.B, t, sd}}
	case WireLU:
		spec.Kind = cluster.LU
		operands = []operand{{&spec.M, rd, rd}}
	default:
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: unknown job kind %d", hdr.Kind)
	}
	// Size the declared operands against the frame before taking a
	// block. Each product is ≤ 2³⁰·2³³ = 2⁶³ (maxWireDim bounds every
	// factor) and is checked against the frame length before the next
	// enters the sum, so nothing wraps uint64.
	var need uint64
	for _, op := range operands {
		sz := uint64(op.br) * uint64(op.bc) * uint64(q) * uint64(q) * 8
		if need += sz; sz > rest || need > rest {
			break
		}
	}
	if need != rest {
		return cluster.JobSpec{}, 0, fmt.Errorf("netmw: job payload %d bytes, operands need %d", rest, need)
	}
	for _, op := range operands {
		m := &matrix.Blocked{BR: op.br, BC: op.bc, Q: q}
		*op.dst = m
		for i := 0; i < op.br; i++ {
			for j := 0; j < op.bc; j++ {
				blk := &matrix.Block{I: i, J: j, Q: q, Data: pool.Get(q * q)}
				m.Blocks = append(m.Blocks, blk) // grows with arrival, never ahead of it
				if err := matrix.ReadFloats(r, blk.Data); err != nil {
					return cluster.JobSpec{}, 0, err
				}
			}
		}
	}
	return spec, hdr.Key, nil
}
