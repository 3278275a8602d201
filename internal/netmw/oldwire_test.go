package netmw

import (
	"fmt"
	"io"

	"repro/internal/matrix"
)

// The whole-payload client hop as it was before submit and reply were
// streamed, kept as the reference the wire-compatibility tests (and the
// framing tests) speak: a frame assembled in one buffer, written with
// writeMsg, read with readMsg, decoded block by block with getFloats.
// Product code no longer assembles a job frame.

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, t MsgType, payload []byte) error {
	if err := writeMsgHeader(w, t, len(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads one framed message.
func readMsg(r io.Reader) (MsgType, []byte, error) {
	var hdr [msgHeaderLen]byte
	t, n, err := readMsgHeader(r, &hdr)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// getFloats decodes n doubles from buf, returning the floats and the rest.
func getFloats(buf []byte, n int) ([]float64, []byte, error) {
	if len(buf) < 8*n {
		return nil, nil, fmt.Errorf("netmw: short float payload: have %d bytes, want %d", len(buf), 8*n)
	}
	fs := make([]float64, n)
	matrix.DecodeFloatsInto(fs, buf)
	return fs, buf[8*n:], nil
}

// encodeBlocked appends every block of m in row-major block order.
func encodeBlocked(buf []byte, m *matrix.Blocked) []byte {
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			buf = matrix.AppendFloats(buf, m.Block(i, j).Data)
		}
	}
	return buf
}

// oldSubmitPayload assembles a MsgSubmit payload the way the old client
// did: header, then every operand through encodeBlocked.
func oldSubmitPayload(hdr JobHeader, operands ...*matrix.Blocked) []byte {
	payload := make([]byte, jobHeaderLen)
	hdr.encode(payload)
	for _, m := range operands {
		payload = encodeBlocked(payload, m)
	}
	return payload
}

// oldDecodeResult is the old client's reply loop: a whole MsgJobDone
// payload decoded into dst block by block.
func oldDecodeResult(resp []byte, dst *matrix.Blocked) error {
	var hdr JobDoneHeader
	if err := hdr.decode(resp); err != nil {
		return err
	}
	body := resp[jobDoneHeaderLen:]
	if hdr.Code != 0 {
		return fmt.Errorf("netmw: job %d failed: %s", hdr.Job, body)
	}
	q := dst.Q
	for i := 0; i < dst.BR; i++ {
		for j := 0; j < dst.BC; j++ {
			fs, rest, err := getFloats(body, q*q)
			if err != nil {
				return err
			}
			copy(dst.Block(i, j).Data, fs)
			body = rest
		}
	}
	return nil
}
