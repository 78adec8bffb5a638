package pvm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire format for buffers (network PVM): item count, then per item a kind
// byte, a uint32 element count and the big-endian payload.  Strings and
// bytes carry their raw length; numeric items carry 8 bytes per element.

// MarshalBinary encodes the buffer's items for the network fabric.
func (b *Buffer) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, b.Bytes()+8)
	out = binary.BigEndian.AppendUint32(out, uint32(len(b.items)))
	for _, it := range b.items {
		switch it.kind {
		// Inline scalars travel as one-element slice items so the wire
		// format is identical to what the slice pack methods produce.
		case kindF64:
			out = append(out, byte(kindF64s))
			out = binary.BigEndian.AppendUint32(out, 1)
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(it.f64))
			continue
		case kindI64:
			out = append(out, byte(kindI64s))
			out = binary.BigEndian.AppendUint32(out, 1)
			out = binary.BigEndian.AppendUint64(out, uint64(it.i64))
			continue
		}
		out = append(out, byte(it.kind))
		switch it.kind {
		case kindF64s:
			out = binary.BigEndian.AppendUint32(out, uint32(len(it.f64s)))
			for _, v := range it.f64s {
				out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
			}
		case kindI64s:
			out = binary.BigEndian.AppendUint32(out, uint32(len(it.i64s)))
			for _, v := range it.i64s {
				out = binary.BigEndian.AppendUint64(out, uint64(v))
			}
		case kindBytes:
			out = binary.BigEndian.AppendUint32(out, uint32(len(it.raw)))
			out = append(out, it.raw...)
		case kindString:
			out = binary.BigEndian.AppendUint32(out, uint32(len(it.str)))
			out = append(out, it.str...)
		default:
			return nil, fmt.Errorf("pvm: unknown item kind %d", it.kind)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a buffer from its wire form.
func (b *Buffer) UnmarshalBinary(data []byte) error {
	*b = Buffer{}
	if len(data) < 4 {
		return fmt.Errorf("pvm: truncated buffer header")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	for i := uint32(0); i < n; i++ {
		if len(data) < 5 {
			return fmt.Errorf("pvm: truncated item %d header", i)
		}
		kind := itemKind(data[0])
		count := binary.BigEndian.Uint32(data[1:])
		data = data[5:]
		switch kind {
		case kindF64s:
			need := int(count) * 8
			if len(data) < need {
				return fmt.Errorf("pvm: truncated float64 item %d", i)
			}
			vs := make([]float64, count)
			for k := range vs {
				vs[k] = math.Float64frombits(binary.BigEndian.Uint64(data[8*k:]))
			}
			b.items = append(b.items, item{kind: kindF64s, f64s: vs})
			data = data[need:]
		case kindI64s:
			need := int(count) * 8
			if len(data) < need {
				return fmt.Errorf("pvm: truncated int64 item %d", i)
			}
			vs := make([]int64, count)
			for k := range vs {
				vs[k] = int64(binary.BigEndian.Uint64(data[8*k:]))
			}
			b.items = append(b.items, item{kind: kindI64s, i64s: vs})
			data = data[need:]
		case kindBytes:
			if len(data) < int(count) {
				return fmt.Errorf("pvm: truncated bytes item %d", i)
			}
			raw := make([]byte, count)
			copy(raw, data)
			b.items = append(b.items, item{kind: kindBytes, raw: raw})
			data = data[count:]
		case kindString:
			if len(data) < int(count) {
				return fmt.Errorf("pvm: truncated string item %d", i)
			}
			b.items = append(b.items, item{kind: kindString, str: string(data[:count])})
			data = data[count:]
		default:
			return fmt.Errorf("pvm: unknown wire item kind %d", kind)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("pvm: %d trailing bytes after buffer", len(data))
	}
	return nil
}

// Frame types of the network-PVM protocol.
const (
	frameHello    = iota + 1 // session -> daemon: register (payload: name)
	frameWelcome             // daemon -> session: assigned session id
	frameAddTask             // session -> daemon: a local task exists (payload: tid request)
	frameTaskID              // daemon -> session: assigned global tid
	frameMsg                 // routed message: src, dst, tag, buffer
	frameBarrier             // session -> daemon: task entered barrier (name, parties)
	frameRelease             // daemon -> session: barrier released (name)
	frameSpawnReq            // session -> daemon: spawn n tasks named X
	frameSpawnFwd            // daemon -> host session: please spawn (name, instance, tid)
	frameSpawnRep            // daemon -> requester: spawned tids (count spawnRefused: refused)
	frameRegHost             // session -> daemon: I can host spawns of name X
	frameRegAck              // daemon -> session: registration processed
	frameBye                 // session -> daemon: closing
	// Hardening extensions (appended so earlier frame values are stable).
	frameResume   // session -> daemon on a fresh conn: resume session (id u32, recv seq u64)
	frameResumeOK // daemon -> session: resume accepted (daemon's recv seq u64)
	framePing     // liveness probe; payload is the sender's recv seq (an ack)
	framePong     // liveness reply; payload is the sender's recv seq (an ack)
	frameAck      // cumulative ack of sequenced frames (recv seq u64)
)

// sequenced reports whether a frame type participates in the session's
// delivery sequence: such frames are counted, retained until acked and
// replayed on session resumption.  Control frames (handshake, liveness,
// acks) are not — losing one is harmless.
func sequenced(typ byte) bool {
	switch typ {
	case frameHello, frameWelcome, frameBye, frameResume, frameResumeOK, framePing, framePong, frameAck:
		return false
	}
	return true
}

// frameRec is one retained sequenced frame awaiting acknowledgement.
type frameRec struct {
	seq  uint64
	typ  byte
	body []byte
}

// ackEvery is the cadence of cumulative acks: one frameAck per this many
// sequenced frames received, bounding the peer's replay buffer.
const ackEvery = 64

// writeFrame writes one length-prefixed frame: u32 length, u8 type, body.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(1+len(body)))
	hdr[4] = typ
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads and decodes one frame: the daemon's loop, the session's
// loop and both handshakes read every frame through it.  The body is read
// in bounded chunks so a lying length prefix from a broken or malicious
// peer cannot force a gigabyte allocation before the short stream is
// discovered.
func readFrame(r io.Reader) (frame, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size == 0 || size > 1<<30 {
		return frame{}, fmt.Errorf("pvm: bad frame size %d", size)
	}
	const chunk = 1 << 16
	first := size
	if first > chunk {
		first = chunk
	}
	buf := make([]byte, first)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, err
	}
	for len(buf) < size {
		n := size - len(buf)
		if n > chunk {
			n = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return frame{}, err
		}
	}
	return decodeFrame(buf[0], buf[1:])
}

// Small helpers for frame bodies.
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendStr(b []byte, s string) []byte { b = appendU32(b, uint32(len(s))); return append(b, s...) }

// frame is one decoded frame: its type, its raw body (which the daemon
// forwards as it came) and what the body holds.  The fields a type fills:
//
//	frameWelcome                       id: the session id
//	frameMsg                           id: dst, src, tag, payload: the buffer's wire form
//	frameBarrier                       name, n: parties, id: the entering session
//	frameRelease                       name, n: the entries released
//	frameRegHost                       name
//	frameSpawnReq, frameSpawnFwd       id: the requester tid, n: the task count, name
//	frameSpawnRep                      id: the requester tid, rep
//	frameResume                        id: the session, seq: its receive count
//	frameResumeOK, framePing,
//	framePong, frameAck                seq: the sender's receive count
//
// Every other type has an empty body; what it holds is ignored.
type frame struct {
	typ             byte
	body            []byte
	id, src, tag, n uint32
	name            string
	seq             uint64
	payload         []byte
	rep             spawnReply
}

// decodeFrame is the one decoder of every frame body.  A body too short
// for its type, or a spawn reply counting more TIDs than it holds, is an
// error; bytes past what the type reads are ignored.
func decodeFrame(typ byte, body []byte) (frame, error) {
	f := frame{typ: typ, body: body}
	d := bodyDecoder{b: body}
	switch typ {
	case frameWelcome:
		f.id = d.u32()
	case frameMsg:
		f.id, f.src, f.tag = d.u32(), d.u32(), d.u32()
		f.payload = d.b
	case frameBarrier:
		f.name, f.n, f.id = d.str(), d.u32(), d.u32()
	case frameRelease:
		f.name, f.n = d.str(), d.u32()
	case frameRegHost:
		f.name = d.str()
	case frameSpawnReq, frameSpawnFwd:
		f.id, f.n, f.name = d.u32(), d.u32(), d.str()
	case frameSpawnRep:
		f.id, f.n = d.u32(), d.u32()
		f.rep.refused = f.n == spawnRefused
		if f.rep.refused || d.err != nil {
			break
		}
		// A count the body cannot hold is a broken peer, not a reason to
		// size a slice from the wire.
		if f.n > uint32(len(d.b)/4) {
			return frame{}, fmt.Errorf("pvm: spawn reply counts %d tids in %d bytes", f.n, len(d.b))
		}
		f.rep.tids = make([]int, f.n)
		for i := range f.rep.tids {
			f.rep.tids[i] = int(d.u32())
		}
	case frameResume:
		f.id, f.seq = d.u32(), d.u64()
	case frameResumeOK, framePing, framePong, frameAck:
		f.seq = d.u64()
	}
	return f, d.err
}

// bodyDecoder reads a frame body front to back; the first short read
// sticks in err and every later read returns zero.
type bodyDecoder struct {
	b   []byte
	err error
}

func (d *bodyDecoder) next(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.err = fmt.Errorf("pvm: short frame")
	}
	if d.err != nil {
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *bodyDecoder) u32() uint32 {
	if v := d.next(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (d *bodyDecoder) u64() uint64 {
	if v := d.next(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (d *bodyDecoder) str() string { return string(d.next(int(d.u32()))) }
