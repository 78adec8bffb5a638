package pvm

import (
	"net"
	"sync"
)

// link is one end of a resumable session link, the protocol both ends of
// the network fabric speak over whatever TCP connection is current.
// Sequenced frames are numbered and retained until the peer acknowledges
// them — by a cumulative frameAck every ackEvery frames, or by the count
// piggybacked on pings and pongs — so that after a connection loss each
// side replays exactly what the other has not seen.  Control frames are
// never retained: losing one is harmless.
//
// The daemon's per-session state and the client session both embed a link;
// what they do about a broken connection (detach and wait, or reconnect)
// stays with them.
type link struct {
	// wmu guards the fields below and serialises writes on conn.
	wmu sync.Mutex
	// conn is the live connection, nil while detached: sequenced frames
	// then only accumulate in unacked.
	conn net.Conn
	// sendSeq counts sequenced frames sent or queued, recvSeq those
	// received from the peer.
	sendSeq, recvSeq uint64
	unacked          []frameRec
	// sinceAck counts sequenced frames received since the last ack sent.
	sinceAck int
}

// send retains a sequenced frame, then writes the frame if a connection is
// attached.  A failed write detaches and closes the connection and returns
// it; the retained copy goes out with the next replay.
func (l *link) send(typ byte, body []byte) (broken net.Conn) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if sequenced(typ) {
		l.sendSeq++
		l.unacked = append(l.unacked, frameRec{seq: l.sendSeq, typ: typ, body: body})
	}
	if l.conn == nil {
		return nil
	}
	if err := writeFrame(l.conn, typ, body); err != nil {
		broken, l.conn = l.conn, nil
		broken.Close()
	}
	return broken
}

// inbound does the link's share of one received frame.  A sequenced frame
// is counted and every ackEvery-th acknowledged; the liveness and ack
// frames are consumed here (control reports that): acked, their decoded
// payload, is the peer's receive count, and a ping is answered with ours.
// broken is the connection a reply could not be written to, as from send.
func (l *link) inbound(typ byte, acked uint64) (control bool, broken net.Conn) {
	switch typ {
	case framePing, framePong, frameAck:
		l.trimAcked(acked)
		if typ == framePing {
			broken = l.send(framePong, appendU64(nil, l.received()))
		}
		return true, broken
	}
	if !sequenced(typ) {
		return false, nil
	}
	l.wmu.Lock()
	l.recvSeq++
	l.sinceAck++
	ack := l.sinceAck >= ackEvery
	if ack {
		l.sinceAck = 0
	}
	seq := l.recvSeq
	l.wmu.Unlock()
	if ack {
		broken = l.send(frameAck, appendU64(nil, seq))
	}
	return false, broken
}

// received returns how many sequenced frames have arrived from the peer.
func (l *link) received() uint64 {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.recvSeq
}

// trimAcked drops retained frames up to and including seq acked.
func (l *link) trimAcked(acked uint64) {
	l.wmu.Lock()
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= acked {
		i++
	}
	l.unacked = l.unacked[i:]
	l.wmu.Unlock()
}

// replay writes the retained frames the peer has not received — those past
// peerRecv — to a fresh connection and makes it the live one.  The caller
// holds wmu, so nothing is sent between the replay and the attach.
func (l *link) replay(conn net.Conn, peerRecv uint64) error {
	for _, f := range l.unacked {
		if f.seq <= peerRecv {
			continue
		}
		if err := writeFrame(conn, f.typ, f.body); err != nil {
			return err
		}
	}
	l.conn = conn
	return nil
}

// detach drops conn if it is still the live connection, closing it, and
// reports whether it was.
func (l *link) detach(conn net.Conn) bool {
	l.wmu.Lock()
	live := conn != nil && l.conn == conn
	if live {
		l.conn = nil
	}
	l.wmu.Unlock()
	if live {
		conn.Close()
	}
	return live
}

// hangUp closes and detaches whatever connection is live.
func (l *link) hangUp() {
	l.wmu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.wmu.Unlock()
}
