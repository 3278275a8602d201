package engine

import "sync"

// Pipe returns a connected in-process transport pair: what one end
// Sends the other end Recvs, synchronously (both channels are
// unbuffered, so a Send blocks until the peer's reader stages it — the
// one-port blocking the paper's master relies on). Messages move by
// reference: this is the zero-copy path of the in-process runtime, and
// the reason Assign/Set/Result carry explicit ownership flags.
func Pipe() (master, worker Transport) {
	down := make(chan Msg) // master → worker
	up := make(chan Msg)   // worker → master
	shared := &pipeShared{done: make(chan struct{})}
	return &pipeEnd{shared: shared, send: down, recv: up},
		&pipeEnd{shared: shared, send: up, recv: down}
}

type pipeShared struct {
	done chan struct{}
	once sync.Once
}

type pipeEnd struct {
	shared *pipeShared
	send   chan<- Msg
	recv   <-chan Msg
}

func (e *pipeEnd) Send(m Msg) error {
	select {
	case e.send <- m:
		return nil
	case <-e.shared.done:
		return ErrClosed
	}
}

func (e *pipeEnd) Recv() (Msg, error) {
	select {
	case m := <-e.recv:
		return m, nil
	case <-e.shared.done:
		return nil, ErrClosed
	}
}

// Close severs both directions; blocked Sends and Recvs on either end
// return ErrClosed. Closing twice (or from both ends) is fine.
func (e *pipeEnd) Close() error {
	e.shared.once.Do(func() { close(e.shared.done) })
	return nil
}
