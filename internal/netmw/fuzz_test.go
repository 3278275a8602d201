package netmw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// encodeAssignBody appends the C-flag tail of a task frame to a header:
// the uint16 flag count, the flag bytes, then the payload doubles (the
// shipped tiles — or, with no flags, every tile) and the payload
// CRC covering header and tail alike.
func encodeAssignBody(hdr []byte, flags []byte, payload []float64) []byte {
	out := appendCFlags(hdr, flags)
	return appendCRC(matrix.AppendFloats(out, payload), 0)
}

// encodeFlushPayload hand-builds a MsgFlushResult payload for seeds:
// the uint32 block count, then per block a uint64 tile id, a uint32
// element count and the raw doubles.
func encodeFlushPayload(count uint32, ids []uint64, blocks [][]float64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], count)
	out := append([]byte(nil), w[:4]...)
	for i, id := range ids {
		binary.LittleEndian.PutUint64(w[:], id)
		out = append(out, w[:]...)
		binary.LittleEndian.PutUint32(w[:4], uint32(len(blocks[i])))
		out = append(out, w[:4]...)
		out = matrix.AppendFloats(out, blocks[i])
	}
	return out
}

// flushSeed is one flush manifest FuzzDecodeMsg starts from, with the
// error its decode must end in ("" = it decodes).
type flushSeed struct {
	what    string
	payload []byte
	want    string
}

// flushSeeds are CRC-sealed so they reach the structural checks: a
// well-formed manifest, then a count overrunning the bytes, a malformed
// (non-C) tile id, a zero element count, trailing garbage after the
// last block — and one whose CRC itself is stale (corrupted body).
func flushSeeds() []flushSeed {
	cid, aid := engine.CBlockID(1, 0, 0), engine.ABlockID(0, 0, 0)
	blk := [][]float64{{1, 2, 3, 4}}
	stale := appendCRC(encodeFlushPayload(1, []uint64{cid}, blk), 0)
	stale[4] ^= 0x01
	return []flushSeed{
		{"well-formed", appendCRC(encodeFlushPayload(1, []uint64{cid}, blk), 0), ""},
		{"count overrun", appendCRC(encodeFlushPayload(3, []uint64{cid}, blk), 0),
			"netmw: flush result block prefix truncated (0 of 12 bytes)"},
		{"non-C id", appendCRC(encodeFlushPayload(1, []uint64{aid}, blk), 0),
			fmt.Sprintf("netmw: flush result block 0 has malformed tile id %#x", aid)},
		{"zero count", appendCRC(encodeFlushPayload(1, []uint64{cid}, [][]float64{{}}), 0),
			"netmw: flush result block 0 declares 0 elements"},
		{"trailing byte", appendCRC(append(encodeFlushPayload(1, []uint64{cid}, blk), 0xee), 0),
			"netmw: flush result has 1 trailing bytes"},
		{"stale CRC", stale, ErrPayloadCRC.Error()},
	}
}

// TestFlushSeedsReachTheirChecks pins where each flush seed of
// FuzzDecodeMsg stops, so a header change cannot refuse them all at
// the header again and leave the checks they were written for unfuzzed.
func TestFlushSeedsReachTheirChecks(t *testing.T) {
	pool := engine.NewBlockPool()
	for _, seed := range flushSeeds() {
		fr, err := readFlushResult(frameOver(seed.payload, len(seed.payload), pool))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != seed.want {
			t.Errorf("%s: decode error %q, want %q", seed.what, got, seed.want)
			continue
		}
		if err == nil {
			if len(fr.IDs) != 1 || fr.IDs[0] != engine.CBlockID(1, 0, 0) || len(fr.Blocks[0]) != 4 || fr.Blocks[0][3] != 4 {
				t.Errorf("%s: decoded %v %v", seed.what, fr.IDs, fr.Blocks)
			}
			pool.PutAll(fr.Blocks)
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
// update sets via the geometry FIFO, flush requests have no payload),
// the server-side task-result and flush-manifest decoders, the
// registration and job-submission ones, and the client-side job-done
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
	f.Add(append([]byte{0}, encodeAssignBody(jp, nil, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{0}, encodeAssignBody(jp, []byte{engine.CShip}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{0}, encodeAssignBody(jp, []byte{engine.CZero}, nil)...))

	taskHdr := TaskHeader{Job: 1, Seq: 2, Attempt: 0, Steps: 1, I0: 0, J0: 0, Rows: 1, Cols: 1, Q: 2}
	tp := make([]byte, taskHeaderLen)
	taskHdr.encode(tp)
	f.Add(append([]byte{1}, encodeAssignBody(tp, nil, []float64{1, 2, 3, 4})...))
	// malformed flag tails: the retired flag 1, an unknown flag state, a
	// count that disagrees with the geometry, and a shipped tile whose
	// payload is missing
	f.Add(append([]byte{1}, encodeAssignBody(tp, []byte{1}, nil)...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, []byte{7}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, []byte{engine.CShip, engine.CShip}, []float64{1, 2, 3, 4})...))
	f.Add(append([]byte{1}, encodeAssignBody(tp, []byte{engine.CShip}, []float64{1, 2})...))

	ri := RegisterInfo{Name: "worker-1", Mem: 128, Slots: 4}
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

	// a task result: the header and its CRC, nothing else
	trh := TaskResultHeader{Job: 1, Seq: 2, Attempt: 3}
	rp := make([]byte, taskResultHeaderLen)
	trh.encode(rp)
	f.Add(append([]byte{7}, appendCRC(append([]byte(nil), rp...), 0)...))

	f.Add(append([]byte{5}, rp...))

	jd := JobDoneHeader{Job: 7, Code: 0}
	dp := make([]byte, jobDoneHeaderLen)
	jd.encode(dp)
	f.Add(append([]byte{6}, dp...))

	for _, seed := range flushSeeds() {
		f.Add(append([]byte{8}, seed.payload...))
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
		// checkAssign validates a successful task decode: a flagless body
		// must yield one block per tile, a flag tail exactly the shipped
		// tiles.
		checkAssign := func(as *engine.Assign, rows, cols int) {
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
		switch sel % 9 {
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
			// the serverTransport MsgTaskResult path: the header and
			// nothing else
			if res, err := readTaskResult(frameOver(payload, len(payload), pool)); err == nil && len(res.Blocks) != 0 {
				t.Fatalf("result decode produced %d blocks, want none", len(res.Blocks))
			}
		case 8:
			// the serverTransport MsgFlushResult path: a successful decode
			// must carry a well-formed C-tile id and a plausible payload for
			// every block it returns.
			fr, err := readFlushResult(frameOver(payload, len(payload), pool))
			if err != nil {
				return
			}
			if len(fr.IDs) != len(fr.Blocks) {
				t.Fatalf("flush decode produced %d ids but %d blocks", len(fr.IDs), len(fr.Blocks))
			}
			for i, id := range fr.IDs {
				if _, _, _, ok := engine.CBlockCoords(id); !ok {
					t.Fatalf("flush decode accepted malformed tile id %#x", id)
				}
				if len(fr.Blocks[i]) < 1 {
					t.Fatal("flush decode accepted an empty block")
				}
			}
			pool.PutAll(fr.Blocks)
		}
	})
}

// FuzzPayloadCRCRejectsBitFlips pins the checksum's whole point: flip
// any single bit of a well-formed, CRC-sealed block frame — MsgSet,
// MsgFlushResult, MsgTask or MsgTaskResult; header, manifest, flags, body or
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
			cid := engine.CBlockID(1, 0, 0)
			payload = appendCRC(encodeFlushPayload(1, []uint64{cid}, [][]float64{{1, 2, 3, 4}}), 0)
		case 2:
			hdr := make([]byte, taskHeaderLen)
			(&TaskHeader{Job: 1, Seq: 2, Steps: 1, Rows: 1, Cols: 2, Q: 2}).encode(hdr)
			payload = encodeAssignBody(hdr, []byte{engine.CShip, engine.CZero}, []float64{1, 2, 3, 4})
		case 3:
			hdr := make([]byte, taskResultHeaderLen)
			(&TaskResultHeader{Job: 7, Seq: 1, Updates: 2, ComputeNS: 3}).encode(hdr)
			payload = appendCRC(hdr, 0)
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
		case 1:
			_, err = readFlushResult(fr)
		case 2:
			_, err = readTask(fr)
		case 3:
			_, err = readTaskResult(fr)
		}
		if !errors.Is(err, ErrPayloadCRC) {
			t.Fatalf("frame kind %d with bit %d flipped: err = %v, want ErrPayloadCRC", kind%4, bit, err)
		}
		if fr.left != 0 {
			t.Fatalf("frame kind %d with bit %d flipped: %d bytes left unread", kind%4, bit, fr.left)
		}
	})
}
