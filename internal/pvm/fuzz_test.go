package pvm

import (
	"bytes"
	"testing"
)

// FuzzBufferUnmarshal hardens the wire decoder against malformed frames:
// it must never panic and must round-trip everything it accepts.
func FuzzBufferUnmarshal(f *testing.F) {
	seed := func(b *Buffer) {
		wire, err := b.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	seed(NewBuffer())
	seed(NewBuffer().PackFloat64s([]float64{1, 2, 3}))
	seed(NewBuffer().PackInt(42).PackString("nbint").PackBytes([]byte{1, 2}))
	seed(NewBuffer().PackInt64s([]int64{-1, 1 << 40}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255})
	f.Add([]byte{0, 0, 0, 1, 0, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Buffer
		if err := b.UnmarshalBinary(data); err != nil {
			return // rejected is fine; panicking is not
		}
		// Whatever decoded must re-encode and decode identically.
		wire, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted buffer fails to marshal: %v", err)
		}
		var again Buffer
		if err := again.UnmarshalBinary(wire); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		w2, _ := again.MarshalBinary()
		if !bytes.Equal(wire, w2) {
			t.Fatal("round trip not stable")
		}
	})
}

// parseFrameBody runs the same body parsers the daemon and session loops
// use on each frame type, discarding the results.  Kept in lockstep with
// serveLoop/readLoop dispatch so the fuzzer exercises the real parsing
// paths.
func parseFrameBody(typ byte, body []byte) {
	switch typ {
	case frameHello, frameRegHost:
		readStr(body)
	case frameWelcome, frameTaskID, frameAddTask, frameRegAck:
		readU32(body)
	case frameMsg:
		_, rest, err := readU32(body)
		if err != nil {
			return
		}
		_, rest, err = readU32(rest)
		if err != nil {
			return
		}
		_, rest, err = readU32(rest)
		if err != nil {
			return
		}
		var b Buffer
		b.UnmarshalBinary(rest)
	case frameBarrier:
		_, rest, err := readStr(body)
		if err != nil {
			return
		}
		_, rest, err = readU32(rest)
		if err != nil {
			return
		}
		readU32(rest)
	case frameRelease:
		_, rest, err := readStr(body)
		if err != nil {
			return
		}
		readU32(rest)
	case frameSpawnReq, frameSpawnFwd:
		_, rest, err := readU32(body)
		if err != nil {
			return
		}
		_, rest, err = readU32(rest)
		if err != nil {
			return
		}
		readStr(rest)
	case frameSpawnRep:
		_, rest, err := readU32(body)
		if err != nil {
			return
		}
		n, rest, err := readU32(rest)
		if err != nil || n == spawnRefused || n > uint32(len(rest)/4) {
			return
		}
		for i := uint32(0); i < n; i++ {
			if _, rest, err = readU32(rest); err != nil {
				return
			}
		}
	case frameResume:
		_, rest, err := readU32(body)
		if err != nil {
			return
		}
		readU64(rest)
	case frameResumeOK, framePing, framePong, frameAck:
		readU64(body)
	}
}

// FuzzFrameDecode hardens the network-PVM frame layer: an arbitrary byte
// stream must never panic the frame reader or the per-type body parsers.
// A malformed or malicious peer must yield an error, never a crash.
func FuzzFrameDecode(f *testing.F) {
	frame := func(typ byte, body []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	wire, err := NewBuffer().PackInt(1).PackString("nbint").PackFloat64s([]float64{1, 2}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	msg := appendU32(nil, 7)
	msg = appendU32(msg, 9)
	msg = appendU32(msg, 3)
	f.Add(frame(frameMsg, append(msg, wire...)))
	f.Add(frame(frameHello, appendStr(nil, "client")))
	f.Add(frame(frameWelcome, appendU32(nil, 1)))
	f.Add(frame(frameBarrier, appendU32(appendU32(appendStr(nil, "b"), 2), 0)))
	f.Add(frame(frameSpawnReq, appendStr(appendU32(appendU32(nil, 0), 3), "opal-server")))
	f.Add(frame(frameSpawnRep, appendU32(appendU32(appendU32(nil, 0), 1), 5)))
	// A refused spawn, a reply whose count claims 2^20 TIDs in an 8-byte
	// body, and a forwarded spawn of 2^20 tasks (past any session's range).
	f.Add(frame(frameSpawnRep, appendU32(appendU32(nil, 0), spawnRefused)))
	f.Add(frame(frameSpawnRep, appendU32(appendU32(nil, 0), 1<<20)))
	f.Add(frame(frameSpawnFwd, appendStr(appendU32(appendU32(nil, 0), 1<<20), "opal-server")))
	f.Add(frame(frameResume, appendU64(appendU32(nil, 1), 42)))
	f.Add(frame(framePing, appendU64(nil, 7)))
	f.Add(frame(frameAck, appendU64(nil, 9)))
	// Two frames back to back, then pathological headers.
	f.Add(append(frame(framePing, appendU64(nil, 1)), frame(framePong, appendU64(nil, 2))...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1})
	f.Add([]byte{0, 0, 0, 2, frameMsg})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, body, err := readFrame(r)
			if err != nil {
				return // a broken stream must end in an error, not a panic
			}
			parseFrameBody(typ, body)
		}
	})
}
