// Package pvm is a PVM-3-style message-passing library: tasks with ids,
// typed pack/unpack buffers, point-to-point sends with (source, tag)
// matching, multicast, and barriers.  It is the substrate the Sciddle RPC
// middleware (and thus parallel Opal) runs on, mirroring the role PVM
// played in the paper.
//
// Two fabrics implement the same Task interface, one virtual-time and one
// real:
//
//   - the simulated fabric (NewSimVM) runs tasks as processes of the
//     internal/vm discrete-event kernel on a chosen platform model, so a
//     run yields the *virtual* execution time Opal would have had on a
//     Cray J90, a T3E-900 or a Cluster of PCs;
//   - the network fabric (NewDaemon, ConnectTCP) runs tasks as real
//     goroutines of sessions joined over TCP through a routing daemon.
//     Tasks of one session deliver to each other without touching the
//     wire, so a single loopback session is also how the engine runs for
//     real on the host and under the race detector.
package pvm

import (
	"fmt"
	"math"
)

// Tag values below ReservedTagBase are free for applications; the Sciddle
// middleware allocates tags from ReservedTagBase upward.
const ReservedTagBase = 1 << 20

// AnySrc and AnyTag are wildcards for Recv and Probe, like pvm_recv(-1,-1).
const (
	AnySrc = -1
	AnyTag = -1
)

type itemKind uint8

const (
	kindF64s itemKind = iota
	kindI64s
	kindBytes
	kindString
	// Scalar kinds store their single value inline in the item, so that
	// packing protocol headers (call ids, method names, step numbers)
	// allocates nothing.  On the wire they travel as one-element slice
	// items, keeping the network format unchanged.
	kindF64
	kindI64
)

type item struct {
	kind itemKind
	f64s []float64
	i64s []int64
	raw  []byte
	str  string
	f64  float64
	i64  int64
}

func (it *item) bytes() int {
	const header = 4 // per-item type/length header, as a real wire format would carry
	switch it.kind {
	case kindF64s:
		return header + 8*len(it.f64s)
	case kindI64s:
		return header + 8*len(it.i64s)
	case kindBytes:
		return header + len(it.raw)
	case kindString:
		return header + len(it.str)
	case kindF64, kindI64:
		return header + 8
	}
	return header
}

// Buffer is a typed message buffer in the style of pvm_pkdouble /
// pvm_upkdouble: values are packed in order and must be unpacked in the
// same order and with the same types.  Packed data is copied, so the
// sender may reuse its arrays immediately; unpacked slices are copies too.
type Buffer struct {
	items []item
	pos   int
	// sent/shared track fabric delivery for the zero-copy simulated
	// fabric: a buffer handed to Send once can be delivered to its single
	// receiver directly (cursor rewound), while a buffer sent twice or
	// multicast must be wrapped in per-receiver readers.
	sent   bool
	shared bool
}

// NewBuffer returns an empty send buffer (pvm_initsend).
func NewBuffer() *Buffer { return &Buffer{} }

// Reset clears the buffer for repacking (pvm_initsend on an existing
// buffer), keeping the item and payload storage of the previous contents
// so that steady-state phases repack without heap allocation.
//
// Reuse contract: the previous contents are overwritten in place, so
// Reset may only be called once every receiver of the earlier message is
// done unpacking it.  The synchronous Sciddle phase protocol guarantees
// exactly that — a client never starts phase k+1 before it has unpacked
// every reply of phase k, and a server never touches request k+1 before
// it has sent reply k.
func (b *Buffer) Reset() *Buffer {
	b.items = b.items[:0]
	b.pos = 0
	b.sent = false
	b.shared = false
	return b
}

// slot extends the item list by one entry, reusing the backing array and
// — when the slot last held the same kind — the payload storage of the
// item previously recorded there.
func (b *Buffer) slot(kind itemKind) *item {
	if n := len(b.items); n < cap(b.items) {
		b.items = b.items[:n+1]
		it := &b.items[n]
		if it.kind != kind {
			*it = item{kind: kind}
		}
		return it
	}
	if b.items == nil {
		b.items = make([]item, 1, 4)
	} else {
		b.items = append(b.items, item{})
	}
	it := &b.items[len(b.items)-1]
	*it = item{kind: kind}
	return it
}

// Bytes returns the total message volume in bytes, the quantity charged by
// the communication cost model.
func (b *Buffer) Bytes() int {
	n := 0
	for i := range b.items {
		n += b.items[i].bytes()
	}
	return n
}

// Items returns the number of packed items.
func (b *Buffer) Items() int { return len(b.items) }

// Rewind resets the unpack cursor to the first item without clearing the
// contents — the state a point-to-point receiver on the simulated fabric
// sees after delivery.  The level-of-detail macro replay uses it to hand
// a freshly packed request to an in-process handler, and the handler's
// reply back to the client, without a fabric round-trip.
func (b *Buffer) Rewind() *Buffer {
	b.pos = 0
	return b
}

// Reader returns a fresh unpack cursor over the same (immutable) items,
// so a multicast buffer can be unpacked independently by every receiver.
func (b *Buffer) Reader() *Buffer { return &Buffer{items: b.items} }

// reader is the internal alias used by the fabrics.
func (b *Buffer) reader() *Buffer { return b.Reader() }

// CopyNext moves the next unread item of b onto the end of dst without
// interpreting it (used by middleware that forwards opaque payloads).
func (b *Buffer) CopyNext(dst *Buffer) error {
	if b.pos >= len(b.items) {
		return fmt.Errorf("pvm: CopyNext past end of buffer (item %d)", b.pos)
	}
	dst.items = append(dst.items, b.items[b.pos])
	b.pos++
	return nil
}

// PackFloat64s appends a copy of xs.
func (b *Buffer) PackFloat64s(xs []float64) *Buffer {
	it := b.slot(kindF64s)
	it.f64s = append(it.f64s[:0], xs...)
	return b
}

// PackFloat64 appends a single float64.
func (b *Buffer) PackFloat64(x float64) *Buffer {
	b.slot(kindF64).f64 = x
	return b
}

// PackInt64s appends a copy of xs.
func (b *Buffer) PackInt64s(xs []int64) *Buffer {
	it := b.slot(kindI64s)
	it.i64s = append(it.i64s[:0], xs...)
	return b
}

// PackInt appends a single integer.
func (b *Buffer) PackInt(x int) *Buffer {
	b.slot(kindI64).i64 = int64(x)
	return b
}

// PackBytes appends a copy of raw bytes.
func (b *Buffer) PackBytes(p []byte) *Buffer {
	it := b.slot(kindBytes)
	it.raw = append(it.raw[:0], p...)
	return b
}

// PackString appends a string.
func (b *Buffer) PackString(s string) *Buffer {
	b.slot(kindString).str = s
	return b
}

// next returns the next unread item when its kind is kind or scalarKind
// (the inline form of the same element type; pass kind twice when no
// scalar form exists).
func (b *Buffer) next(kind, scalarKind itemKind) (*item, error) {
	if b.pos >= len(b.items) {
		return nil, fmt.Errorf("pvm: unpack past end of buffer (item %d)", b.pos)
	}
	it := &b.items[b.pos]
	if it.kind != kind && it.kind != scalarKind {
		return nil, fmt.Errorf("pvm: unpack type mismatch at item %d: have %d, want %d", b.pos, it.kind, kind)
	}
	b.pos++
	return it, nil
}

// UnpackFloat64s removes and returns the next item as a fresh []float64.
func (b *Buffer) UnpackFloat64s() ([]float64, error) {
	it, err := b.next(kindF64s, kindF64)
	if err != nil {
		return nil, err
	}
	if it.kind == kindF64 {
		return []float64{it.f64}, nil
	}
	cp := make([]float64, len(it.f64s))
	copy(cp, it.f64s)
	return cp, nil
}

// UnpackFloat64sInto copies the next float64 item into dst, which must
// have the exact length.
func (b *Buffer) UnpackFloat64sInto(dst []float64) error {
	it, err := b.next(kindF64s, kindF64)
	if err != nil {
		return err
	}
	if it.kind == kindF64 {
		if len(dst) != 1 {
			return fmt.Errorf("pvm: unpack into wrong length %d, message has 1", len(dst))
		}
		dst[0] = it.f64
		return nil
	}
	if len(dst) != len(it.f64s) {
		return fmt.Errorf("pvm: unpack into wrong length %d, message has %d", len(dst), len(it.f64s))
	}
	copy(dst, it.f64s)
	return nil
}

// UnpackFloat64sReuse copies the next float64 item into *dst, growing the
// slice only when its capacity is insufficient.  Steady-state receivers
// that keep their scratch slice between messages unpack without heap
// allocation.
func (b *Buffer) UnpackFloat64sReuse(dst *[]float64) error {
	it, err := b.next(kindF64s, kindF64)
	if err != nil {
		return err
	}
	if it.kind == kindF64 {
		*dst = append((*dst)[:0], it.f64)
		return nil
	}
	*dst = append((*dst)[:0], it.f64s...)
	return nil
}

// UnpackFloat64 removes a single float64.
func (b *Buffer) UnpackFloat64() (float64, error) {
	it, err := b.next(kindF64, kindF64s)
	if err != nil {
		return math.NaN(), err
	}
	if it.kind == kindF64 {
		return it.f64, nil
	}
	if len(it.f64s) != 1 {
		return math.NaN(), fmt.Errorf("pvm: expected scalar float64, have %d values", len(it.f64s))
	}
	return it.f64s[0], nil
}

// UnpackInt64s removes and returns the next item as a fresh []int64.
func (b *Buffer) UnpackInt64s() ([]int64, error) {
	it, err := b.next(kindI64s, kindI64)
	if err != nil {
		return nil, err
	}
	if it.kind == kindI64 {
		return []int64{it.i64}, nil
	}
	cp := make([]int64, len(it.i64s))
	copy(cp, it.i64s)
	return cp, nil
}

// UnpackInt removes a single integer.
func (b *Buffer) UnpackInt() (int, error) {
	it, err := b.next(kindI64, kindI64s)
	if err != nil {
		return 0, err
	}
	if it.kind == kindI64 {
		return int(it.i64), nil
	}
	if len(it.i64s) != 1 {
		return 0, fmt.Errorf("pvm: expected scalar int, have %d values", len(it.i64s))
	}
	return int(it.i64s[0]), nil
}

// UnpackBytes removes and returns the next raw item.
func (b *Buffer) UnpackBytes() ([]byte, error) {
	it, err := b.next(kindBytes, kindBytes)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(it.raw))
	copy(cp, it.raw)
	return cp, nil
}

// UnpackString removes and returns the next string item.
func (b *Buffer) UnpackString() (string, error) {
	it, err := b.next(kindString, kindString)
	if err != nil {
		return "", err
	}
	return it.str, nil
}

// MustFloat64s unpacks or panics; for protocol positions that cannot fail
// absent a programming error.
func (b *Buffer) MustFloat64s() []float64 {
	xs, err := b.UnpackFloat64s()
	if err != nil {
		panic(err)
	}
	return xs
}

// MustFloat64sReuse unpacks into a reusable scratch slice or panics.
func (b *Buffer) MustFloat64sReuse(dst *[]float64) {
	if err := b.UnpackFloat64sReuse(dst); err != nil {
		panic(err)
	}
}

// MustFloat64 unpacks a scalar or panics.
func (b *Buffer) MustFloat64() float64 {
	x, err := b.UnpackFloat64()
	if err != nil {
		panic(err)
	}
	return x
}

// MustInt64s unpacks a fresh []int64 or panics.
func (b *Buffer) MustInt64s() []int64 {
	xs, err := b.UnpackInt64s()
	if err != nil {
		panic(err)
	}
	return xs
}

// MustBytes unpacks a fresh []byte or panics.
func (b *Buffer) MustBytes() []byte {
	p, err := b.UnpackBytes()
	if err != nil {
		panic(err)
	}
	return p
}

// MustInt unpacks a scalar int or panics.
func (b *Buffer) MustInt() int {
	x, err := b.UnpackInt()
	if err != nil {
		panic(err)
	}
	return x
}

// MustString unpacks a string or panics.
func (b *Buffer) MustString() string {
	s, err := b.UnpackString()
	if err != nil {
		panic(err)
	}
	return s
}
