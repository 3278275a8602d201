package netmw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// FuzzDecodeFrame throws arbitrary byte streams at the framing layer:
// readMsg must return an error (or a message) for every input, never
// panic, and never allocate more than the bytes that actually arrived
// plus one read step — a corrupted length prefix is not a license for a
// giant allocation.
func FuzzDecodeFrame(f *testing.F) {
	// well-formed frames
	var ok bytes.Buffer
	writeMsg(&ok, MsgHeartbeat, nil)
	f.Add(ok.Bytes())
	ok.Reset()
	ri := RegisterInfo{Name: "w1", Mem: 64, Slots: 2}
	writeMsg(&ok, MsgRegister, ri.encode())
	f.Add(ok.Bytes())
	ok.Reset()
	writeMsg(&ok, MsgSet, matrix.AppendFloats([]byte{0, 0, 0, 0}, []float64{1, 2, 3, 4}))
	f.Add(ok.Bytes())
	// truncated header / truncated payload / hostile length prefix
	f.Add([]byte{byte(MsgTask)})
	f.Add([]byte{byte(MsgTask), 10, 0, 0, 0, 1, 2})
	f.Add([]byte{byte(MsgTask), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(MsgTaskResult), 0, 0, 0, 0x10}) // 256 MiB prefix, no data
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, payload, err := readMsg(r)
			if err != nil {
				return
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
			}
		}
	})
}

// encodeSetPayload hand-builds a delta-set payload for seeds: k and cap,
// the declared nA/nB counts, the (id, flag) manifest, the raw float
// payload, and the trailing payload CRC the decoder now demands. Prefix
// bytes (the fuzz geometry selectors) pass through outside the CRC.
func encodeSetPayload(prefix []byte, k, cacheCap uint32, ids []uint64, flags []byte, nA, nB uint16, payload []float64) []byte {
	out := append([]byte(nil), prefix...)
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], k)
	out = append(out, w[:4]...)
	binary.LittleEndian.PutUint32(w[:4], cacheCap)
	out = append(out, w[:4]...)
	binary.LittleEndian.PutUint16(w[:2], nA)
	out = append(out, w[:2]...)
	binary.LittleEndian.PutUint16(w[:2], nB)
	out = append(out, w[:2]...)
	for i, id := range ids {
		binary.LittleEndian.PutUint64(w[:], id)
		out = append(out, w[:]...)
		out = append(out, flags[i])
	}
	return appendCRC(matrix.AppendFloats(out, payload), len(prefix))
}

// encodeAssignBody appends the tail of a task frame to a header: the
// uint16 drop count and the dropped job numbers, the uint16 flag count,
// the flag bytes, then the payload doubles (the shipped tiles — or,
// with no flags, every tile) and the payload CRC covering header and
// tail alike.
func encodeAssignBody(hdr []byte, drops []uint32, flags []byte, payload []float64) []byte {
	out := appendCFlags(appendDrops(hdr, drops), flags)
	return appendCRC(matrix.AppendFloats(out, payload), 0)
}

// encodeResultPayload hand-builds a MsgTaskResult payload for seeds:
// the header of job 1, seq 2, then the uint32 block count, the uint32
// element count per block and the blocks' doubles.
func encodeResultPayload(count, n uint32, blocks [][]float64) []byte {
	out := make([]byte, taskResultHeaderLen)
	(&TaskResultHeader{Job: 1, Seq: 2, Updates: 3, ComputeNS: 4}).encode(out)
	out = binary.LittleEndian.AppendUint32(out, count)
	out = binary.LittleEndian.AppendUint32(out, n)
	return oldBlocks(out, blocks)
}

// flushSeed is one task result — a tile on its way home — that
// FuzzDecodeMsg starts from, with the error its decode must end in
// ("" = it decodes).
type flushSeed struct {
	what    string
	payload []byte
	want    string
}

// flushSeeds are CRC-sealed so they reach the structural checks: a
// well-formed result, a header-only acknowledgement of the retired
// two-frame dialect, then a count overrunning the bytes, a zero element
// count, a count past the wire's bound, trailing garbage after the last
// block — and one whose CRC itself is stale (corrupted body).
func flushSeeds() []flushSeed {
	blk := [][]float64{{1, 2, 3, 4}}
	stale := appendCRC(encodeResultPayload(1, 4, blk), 0)
	stale[4] ^= 0x01
	return []flushSeed{
		{"well-formed", appendCRC(encodeResultPayload(1, 4, blk), 0), ""},
		{"header-only ack", appendCRC(encodeResultPayload(1, 4, nil)[:taskResultHeaderLen], 0),
			"netmw: result header truncated (28 of 36 bytes)"},
		{"count overrun", appendCRC(encodeResultPayload(3, 4, blk), 0),
			"netmw: task result payload is 32 bytes for 3 blocks of 4 elements"},
		{"zero element count", appendCRC(encodeResultPayload(1, 0, nil), 0),
			"netmw: task result declares 1 blocks of 0 elements"},
		{"count past the bound", appendCRC(encodeResultPayload(1<<31, 4, blk), 0),
			"netmw: task result declares 2147483648 blocks of 4 elements"},
		{"trailing byte", appendCRC(append(encodeResultPayload(1, 4, blk), 0xee), 0),
			"netmw: task result payload is 33 bytes for 1 blocks of 4 elements"},
		{"stale CRC", stale, ErrPayloadCRC.Error()},
	}
}

// TestFlushSeedsReachTheirChecks pins where each task-result seed of
// FuzzDecodeMsg stops, so a header change cannot refuse them all at
// the header again and leave the checks they were written for unfuzzed.
func TestFlushSeedsReachTheirChecks(t *testing.T) {
	pool := engine.NewBlockPool()
	for _, seed := range flushSeeds() {
		res, err := readTaskResult(frameOver(seed.payload, len(seed.payload), pool))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != seed.want {
			t.Errorf("%s: decode error %q, want %q", seed.what, got, seed.want)
			continue
		}
		if err == nil {
			if res.ID != (engine.AssignID{A: 1, B: 2}) || res.Updates != 3 || len(res.Blocks) != 1 || len(res.Blocks[0]) != 4 || res.Blocks[0][3] != 4 {
				t.Errorf("%s: decoded %+v", seed.what, res)
			}
			pool.PutAll(res.Blocks)
		}
	}
}

// frameOver streams payload as the body of a frame declaring n payload
// bytes, the way a connection's reader hands a block frame to the
// decoders.
func frameOver(payload []byte, n int, pool *engine.BlockPool) *frameReader {
	f := &frameReader{r: bytes.NewReader(payload), pool: pool}
	f.start(n)
	return f
}

// FuzzDecodeMsg drives every payload decoder of the wire protocol with
// arbitrary bytes, selected by the first byte: malformed frames must
// error, never panic and never allocate unboundedly. It covers the live
// transport decode paths — the streaming worker-side decoders (tasks,
// update sets via the geometry FIFO), the server-side task-result
// decoder, the registration and job-submission ones, and the client-side job-done
// headers. Block frames are streamed over a bytes.Reader with the
// payload's length declared.
func FuzzDecodeMsg(f *testing.F) {
	pool := engine.NewBlockPool()
	// Seed with one well-formed payload per decoder so the corpus starts
	// on the happy paths. Task bodies carry the C-flag tail: count 0
	// ships every tile, a count matching the geometry flags each tile as
	// shipped / zero.
	unflaggedHdr := TaskHeader{Job: 1, Seq: 0, Attempt: 0, Steps: 2, I0: 0, J0: 0, Rows: 1, Cols: 1, Q: 2}
	jp := make([]byte, taskHeaderLen)
	unflaggedHdr.encode(jp)
	f.Add(append([]byte{0}, encodeAssignBody(jp, nil, nil, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{0}, encodeAssignBody(jp, nil, []byte{engine.CShip}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{0}, encodeAssignBody(jp, nil, []byte{engine.CZero}, nil)...))

	taskHdr := TaskHeader{Job: 1, Seq: 2, Attempt: 0, Steps: 1, I0: 0, J0: 0, Rows: 1, Cols: 1, Q: 2}
	tp := make([]byte, taskHeaderLen)
	taskHdr.encode(tp)
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, nil, []float64{1, 2, 3, 4})...))
	// malformed flag tails: the retired flag 1, an unknown flag state, a
	// count that disagrees with the geometry, and a shipped tile whose
	// payload is missing
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, []byte{1}, nil)...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, []byte{7}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, []byte{engine.CShip, engine.CShip}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, []byte{engine.CShip}, []float64{1, 2})...))
	// drop lists: two released jobs, the one job number past the block
	// ID fields, and a count the frame is too short to carry
	f.Add(append([]byte{1}, encodeAssignBody(tp, []uint32{3, 9}, []byte{engine.CZero}, nil)...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, []uint32{1 << 31}, nil, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{1}, appendCRC(binary.LittleEndian.AppendUint16(bytes.Clone(tp), 500), 0)...))

	ri := RegisterInfo{Name: "worker-1", Mem: 128, Slots: 4, Version: ProtocolVersion}
	f.Add(append([]byte{2}, ri.encode()...))

	sub := JobHeader{Kind: WireMatMul, R: 1, T: 1, S: 1, Q: 2, Mu: 1}
	sp := make([]byte, jobHeaderLen)
	sub.encode(sp)
	for i := 0; i < 3; i++ {
		sp = matrix.AppendFloats(sp, []float64{1, 2, 3, 4})
	}
	f.Add(append([]byte{3}, sp...))

	lu := JobHeader{Kind: WireLU, R: 2, T: 2, S: 2, Q: 1, Mu: 1}
	lp := make([]byte, jobHeaderLen)
	lu.encode(lp)
	lp = matrix.AppendFloats(lp, []float64{1, 2, 3, 4})
	f.Add(append([]byte{3}, lp...))

	// a keyed (idempotent) submission, and a header truncated inside the
	// key field — shorter than the old key-less header layout
	keyed := JobHeader{Kind: WireMatMul, R: 1, T: 1, S: 1, Q: 1, Mu: 1, Key: 0xfeedface12345678}
	kp := make([]byte, jobHeaderLen)
	keyed.encode(kp)
	for i := 0; i < 3; i++ {
		kp = matrix.AppendFloats(kp, []float64{1})
	}
	f.Add(append([]byte{3}, kp...))
	f.Add(append([]byte{3}, kp[:jobHeaderLen-4]...))

	// geometry selectors (rows 1, cols 1, q 2, steps 1), then a
	// well-formed delta-set payload: k, cap, counts, two flagged
	// untracked manifest entries, two operand blocks
	set := encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{0, 0}, []byte{1, 1}, 1, 1,
		[]float64{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(append([]byte{4}, set...))

	// a delta set with a resident reference: tracked A id flagged 0 (no
	// payload), tracked B id flagged 1 with payload
	aid := engine.ABlockID(0, 0, 0)
	bid := engine.BBlockID(0, 0, 0)
	delta := encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{aid, bid}, []byte{0, 1}, 1, 1,
		[]float64{1, 2, 3, 4})
	f.Add(append([]byte{4}, delta...))

	// malformed manifests: an untracked reference without payload, a bad
	// flag, a malformed (valid-bit-less) id, counts that disagree with
	// the geometry, and payload bytes missing for a flagged block
	f.Add(append([]byte{4}, encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{0, bid}, []byte{0, 1}, 1, 1, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{4}, encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{aid, bid}, []byte{2, 1}, 1, 1, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{4}, encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{0x1234, bid}, []byte{1, 1}, 1, 1, []float64{1, 2, 3, 4, 5, 6, 7, 8})...))
	f.Add(append([]byte{4}, encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{aid, aid, bid}, []byte{1, 1, 1}, 2, 1, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{4}, encodeSetPayload([]byte{0, 0, 1, 0}, 0, 8,
		[]uint64{aid, bid}, []byte{1, 1}, 1, 1, []float64{1, 2})...))

	// a bare task-result header
	trh := TaskResultHeader{Job: 1, Seq: 2, Attempt: 3}
	rp := make([]byte, taskResultHeaderLen)
	trh.encode(rp)
	f.Add(append([]byte{5}, rp...))

	jd := JobDoneHeader{Job: 7, Code: 0}
	dp := make([]byte, jobDoneHeaderLen)
	jd.encode(dp)
	f.Add(append([]byte{6}, dp...))

	for _, seed := range flushSeeds() {
		f.Add(append([]byte{7}, seed.payload...))
	}

	// hostile geometry: a job header declaring a huge matrix with no data
	evil := JobHeader{Kind: WireMatMul, R: 1 << 30, T: 1 << 30, S: 1 << 30, Q: 1 << 30, Mu: 1}
	ep := make([]byte, jobHeaderLen)
	evil.encode(ep)
	f.Add(append([]byte{3}, ep...))
	// dimensions within maxWireDim whose size product wraps uint64 to 0
	wrap := JobHeader{Kind: WireMatMul, R: 32768, T: 16384, S: 32768, Q: 32768, Mu: 1}
	wp := make([]byte, jobHeaderLen)
	wrap.encode(wp)
	f.Add(append([]byte{3}, wp...))
	// and a task header doing the same (CRC-sealed so the hostile
	// dimensions reach the geometry checks, not the checksum gate)
	evilTask := TaskHeader{Rows: 1 << 31, Cols: 1 << 31, Steps: 1 << 31, Q: 1 << 31}
	ejp := make([]byte, taskHeaderLen)
	evilTask.encode(ejp)
	f.Add(append([]byte{0}, appendCRC(ejp, 0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, payload := data[0], data[1:]
		// checkAssign validates a successful task decode: the drop list
		// is the one the body declares, and a flagless body must yield
		// one block per tile, a flag tail exactly the shipped tiles.
		checkAssign := func(as *engine.Assign, rows, cols int) {
			ndrop := int(binary.LittleEndian.Uint16(payload[taskHeaderLen:]))
			if len(as.Drop) != ndrop {
				t.Fatalf("assignment decode kept %d dropped jobs, the body declares %d", len(as.Drop), ndrop)
			}
			for i, job := range as.Drop {
				if want := binary.LittleEndian.Uint32(payload[taskHeaderLen+2+4*i:]); job != want {
					t.Fatalf("dropped job %d decoded as %d, sent %d", i, job, want)
				}
			}
			want := rows * cols
			if len(as.CFlags) != 0 {
				want = 0
				for _, fl := range as.CFlags {
					if fl == engine.CShip {
						want++
					}
				}
				if len(as.CFlags) != rows*cols {
					t.Fatalf("assignment decode kept %d flags for %dx%d", len(as.CFlags), rows, cols)
				}
			}
			if len(as.Blocks) != want {
				t.Fatalf("assignment decode produced %d blocks, want %d (%dx%d, %d flags)",
					len(as.Blocks), want, rows, cols, len(as.CFlags))
			}
		}
		switch sel % 8 {
		case 0, 1:
			// the clusterWorkerTransport MsgTask path: header + flagged
			// block body
			as, err := readTask(frameOver(payload, len(payload), pool))
			if err == nil {
				checkAssign(as, as.Rows, as.Cols)
				pool.PutAll(as.Blocks)
			}
		case 2:
			var out RegisterInfo
			if err := out.decode(payload); err == nil {
				// re-encode must round-trip
				var back RegisterInfo
				if err := back.decode(out.encode()); err != nil || back != out {
					t.Fatalf("register re-decode %+v != %+v (%v)", back, out, err)
				}
			}
		case 3:
			spec, _, err := readSubmission(bytes.NewReader(payload), len(payload), pool)
			if err == nil && spec.Kind == 0 && spec.C == nil {
				t.Fatal("readSubmission returned an empty spec without error")
			}
		case 4:
			// the MsgSet path: the delta-manifest decoder against a
			// geometry FIFO seeded from the payload itself, as the
			// transports seed it from a validated prior assignment.
			// Malformed manifests (bad flags, untracked references,
			// valid-bit-less ids, count/geometry mismatches, short
			// payloads) must error; a successful decode must produce
			// exactly the declared geometry with every flagged entry
			// carrying a payload and every reference a well-formed id.
			if len(payload) < 4 {
				return
			}
			var g geomFIFO
			rows := int(payload[0]%4) + 1
			cols := int(payload[1]%4) + 1
			q := int(payload[2]%8) + 1
			steps := int(payload[3]%3) + 1
			g.push(rows, cols, q, steps)
			set, err := readSet(frameOver(payload[4:], len(payload)-4, pool), &g)
			if err == nil {
				if len(set.A) != rows || len(set.B) != cols {
					t.Fatalf("MsgSet decode produced %dx%d operands for %dx%d", len(set.A), len(set.B), rows, cols)
				}
				if len(set.AIDs) != rows || len(set.BIDs) != cols {
					t.Fatalf("MsgSet decode produced %d+%d manifest ids for %dx%d", len(set.AIDs), len(set.BIDs), rows, cols)
				}
				ids := append(append([]uint64(nil), set.AIDs...), set.BIDs...)
				blocks := append(append([][]float64(nil), set.A...), set.B...)
				for i, id := range ids {
					if id == 0 && blocks[i] == nil {
						t.Fatal("decoder accepted an untracked reference without payload")
					}
					if id != 0 && !engine.ValidBlockID(id) {
						t.Fatalf("decoder accepted malformed block id %#x", id)
					}
					if blocks[i] != nil && len(blocks[i]) != q*q {
						t.Fatalf("decoded block has %d elements, want %d", len(blocks[i]), q*q)
					}
				}
				pool.PutAll(set.A)
				pool.PutAll(set.B)
				pool.PutSet(set)
			}
		case 5:
			var hdr TaskResultHeader
			hdr.decode(payload)
		case 6:
			var hdr JobDoneHeader
			hdr.decode(payload)
		case 7:
			// the serverTransport MsgTaskResult path: a successful decode
			// returns exactly the blocks it declares, each of the declared
			// size.
			res, err := readTaskResult(frameOver(payload, len(payload), pool))
			if err != nil {
				return
			}
			if len(payload) < taskResultHeaderLen+8 {
				t.Fatalf("result decode accepted a %d-byte payload", len(payload))
			}
			count := binary.LittleEndian.Uint32(payload[taskResultHeaderLen:])
			n := binary.LittleEndian.Uint32(payload[taskResultHeaderLen+4:])
			if len(res.Blocks) != int(count) {
				t.Fatalf("result decode produced %d blocks, declared %d", len(res.Blocks), count)
			}
			for _, blk := range res.Blocks {
				if len(blk) != int(n) {
					t.Fatalf("result decode produced a %d-element block, declared %d", len(blk), n)
				}
			}
			pool.PutAll(res.Blocks)
		}
	})
}

// FuzzPayloadCRCRejectsBitFlips pins the checksum's whole point: flip
// any single bit of a well-formed, CRC-sealed block frame — MsgSet,
// MsgTask or MsgTaskResult, with and without a tile; header, manifest,
// flags, body or
// the checksum field itself — and the streaming decoder must reject it
// as ErrPayloadCRC (CRC32C detects every 1-bit error), without
// panicking and with every block it took back in the pool. A flip that
// breaks validation part way is still a checksum fault: the decoder
// drains the frame and judges the checksum first. This is the
// wire-corruption half of the integrity story; post-decode corruption
// is the Freivalds verifier's job.
func FuzzPayloadCRCRejectsBitFlips(f *testing.F) {
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(99), uint8(0))
	f.Add(uint16(0), uint8(1))
	f.Add(uint16(201), uint8(1))
	f.Add(uint16(70), uint8(2))
	f.Add(uint16(300), uint8(2))
	f.Add(uint16(5), uint8(3))
	f.Fuzz(func(t *testing.T, pos uint16, kind uint8) {
		pool := engine.NewBlockPool()
		var payload []byte
		switch kind % 4 {
		case 0:
			payload = encodeSetPayload(nil, 3, 8,
				[]uint64{0, engine.BBlockID(1, 3, 0)}, []byte{1, 1}, 1, 1,
				[]float64{1, 2, 3, 4, 5, 6, 7, 8})
		case 1:
			payload = appendCRC(encodeResultPayload(1, 4, [][]float64{{1, 2, 3, 4}}), 0)
		case 2:
			hdr := make([]byte, taskHeaderLen)
			(&TaskHeader{Job: 1, Seq: 2, Steps: 1, Rows: 1, Cols: 2, Q: 2}).encode(hdr)
			payload = encodeAssignBody(hdr, nil, []byte{engine.CShip, engine.CZero}, []float64{1, 2, 3, 4})
		case 3:
			payload = appendCRC(encodeResultPayload(0, 0, nil), 0)
		}
		bit := int(pos) % (len(payload) * 8)
		payload[bit/8] ^= 1 << (bit % 8)
		fr := frameOver(payload, len(payload), pool)
		var err error
		switch kind % 4 {
		case 0:
			var g geomFIFO
			g.push(1, 1, 2, 1)
			_, err = readSet(fr, &g)
		case 1, 3:
			_, err = readTaskResult(fr)
		case 2:
			_, err = readTask(fr)
		}
		if !errors.Is(err, ErrPayloadCRC) {
			t.Fatalf("frame kind %d with bit %d flipped: err = %v, want ErrPayloadCRC", kind%4, bit, err)
		}
		if fr.left != 0 {
			t.Fatalf("frame kind %d with bit %d flipped: %d bytes left unread", kind%4, bit, fr.left)
		}
	})
}
