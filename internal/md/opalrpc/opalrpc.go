// Code generated by sciddlegen. DO NOT EDIT.

package opalrpc

import (
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
)

// OpalHandler is the server-side implementation of service Opal.
// Of the task argument a handler may use only its identity, Charge and
// SetWorkingSet (see sciddle.Handler).
type OpalHandler interface {
	Init(t pvm.Task, n int, nsolute int, kinds []int64, types []int64, charges []float64, c12 []float64, c6 []float64, excl []int64, cutoff float64, box float64, celllist int, strategy int, seed int, rank int, nservers int)
	Update(t pvm.Task, coords []float64) (checks int)
	Nbint(t pvm.Task, coords []float64) (evdw float64, ecoul float64, grad []float64, npairs int)
}

// RegisterOpal binds h's methods onto svc.
//
// The []float64 arguments passed to h are stub-owned scratch, valid only
// for the duration of the call; handlers that retain them must copy.
func RegisterOpal(svc *sciddle.Service, h OpalHandler) {
	var initCharges []float64
	var initC12 []float64
	var initC6 []float64
	svc.Register("init", func(t pvm.Task, b *pvm.Buffer) *pvm.Buffer {
		n := b.MustInt()
		nsolute := b.MustInt()
		kinds := b.MustInt64s()
		types := b.MustInt64s()
		b.MustFloat64sReuse(&initCharges)
		charges := initCharges
		b.MustFloat64sReuse(&initC12)
		c12 := initC12
		b.MustFloat64sReuse(&initC6)
		c6 := initC6
		excl := b.MustInt64s()
		cutoff := b.MustFloat64()
		box := b.MustFloat64()
		celllist := b.MustInt()
		strategy := b.MustInt()
		seed := b.MustInt()
		rank := b.MustInt()
		nservers := b.MustInt()
		h.Init(t, n, nsolute, kinds, types, charges, c12, c6, excl, cutoff, box, celllist, strategy, seed, rank, nservers)
		return nil
	})
	var updateCoords []float64
	updateRep := pvm.NewBuffer()
	svc.Register("update", func(t pvm.Task, b *pvm.Buffer) *pvm.Buffer {
		b.MustFloat64sReuse(&updateCoords)
		coords := updateCoords
		checks := h.Update(t, coords)
		rep := updateRep.Reset()
		rep.PackInt(checks)
		return rep
	})
	var nbintCoords []float64
	nbintRep := pvm.NewBuffer()
	svc.Register("nbint", func(t pvm.Task, b *pvm.Buffer) *pvm.Buffer {
		b.MustFloat64sReuse(&nbintCoords)
		coords := nbintCoords
		evdw, ecoul, grad, npairs := h.Nbint(t, coords)
		rep := nbintRep.Reset()
		rep.PackFloat64(evdw)
		rep.PackFloat64(ecoul)
		rep.PackFloat64s(grad)
		rep.PackInt(npairs)
		return rep
	})
}

// OpalClient is the typed client stub for service Opal.
type OpalClient struct {
	Conn *sciddle.Conn
}

// NewOpalClient wraps an established connection.
func NewOpalClient(conn *sciddle.Conn) *OpalClient {
	return &OpalClient{Conn: conn}
}

// Init calls init on server index i; a transport failure comes back as a
// *sciddle.ServerError.
func (c *OpalClient) Init(i int, n int, nsolute int, kinds []int64, types []int64, charges []float64, c12 []float64, c6 []float64, excl []int64, cutoff float64, box float64, celllist int, strategy int, seed int, rank int, nservers int) error {
	args := pvm.NewBuffer()
	PackOpalInitArgsInto(args, n, nsolute, kinds, types, charges, c12, c6, excl, cutoff, box, celllist, strategy, seed, rank, nservers)
	_, err := c.Conn.Call(i, "init", args)
	return err
}

// InitPhasePacked calls init once on every server (one SPMD phase): pack
// writes the per-server arguments into a connection-owned request buffer.
// A transport failure comes back as a *sciddle.ServerError naming the
// failed server.
func (c *OpalClient) InitPhasePacked(pack func(i int, args *pvm.Buffer)) error {
	_, err := c.Conn.CallPhasePacked("init", pack)
	return err
}

// PackOpalInitArgsInto packs the arguments of init into b.
func PackOpalInitArgsInto(b *pvm.Buffer, n int, nsolute int, kinds []int64, types []int64, charges []float64, c12 []float64, c6 []float64, excl []int64, cutoff float64, box float64, celllist int, strategy int, seed int, rank int, nservers int) {
	b.PackInt(n)
	b.PackInt(nsolute)
	b.PackInt64s(kinds)
	b.PackInt64s(types)
	b.PackFloat64s(charges)
	b.PackFloat64s(c12)
	b.PackFloat64s(c6)
	b.PackInt64s(excl)
	b.PackFloat64(cutoff)
	b.PackFloat64(box)
	b.PackInt(celllist)
	b.PackInt(strategy)
	b.PackInt(seed)
	b.PackInt(rank)
	b.PackInt(nservers)
}

// OpalUpdateReply holds the results of Opal.Update.
type OpalUpdateReply struct {
	Checks int
}

func unpackOpalUpdateReplyInto(b *pvm.Buffer, r *OpalUpdateReply) {
	r.Checks = b.MustInt()
}

// Update calls update on server index i; a transport failure comes back as a
// *sciddle.ServerError.
func (c *OpalClient) Update(i int, coords []float64) (OpalUpdateReply, error) {
	var r OpalUpdateReply
	args := pvm.NewBuffer()
	PackOpalUpdateArgsInto(args, coords)
	rep, err := c.Conn.Call(i, "update", args)
	if err != nil {
		return r, err
	}
	unpackOpalUpdateReplyInto(rep, &r)
	return r, nil
}

// UpdatePhaseInto calls update once on every server (one SPMD phase): pack writes
// the per-server arguments into a connection-owned request buffer, and the
// replies are unpacked into out (one slot per current server), reusing the
// capacity of its slice fields.  A caller that keeps out across phases
// allocates nothing per phase.  A transport failure comes back as a
// *sciddle.ServerError naming the failed server.
func (c *OpalClient) UpdatePhaseInto(pack func(i int, args *pvm.Buffer), out []OpalUpdateReply) error {
	reps, err := c.Conn.CallPhasePacked("update", pack)
	if err != nil {
		return err
	}
	for i, rep := range reps {
		unpackOpalUpdateReplyInto(rep, &out[i])
	}
	return nil
}

// PackOpalUpdateArgsInto packs the arguments of update into b.
func PackOpalUpdateArgsInto(b *pvm.Buffer, coords []float64) {
	b.PackFloat64s(coords)
}

// OpalNbintReply holds the results of Opal.Nbint.
type OpalNbintReply struct {
	Evdw   float64
	Ecoul  float64
	Grad   []float64
	Npairs int
}

func unpackOpalNbintReplyInto(b *pvm.Buffer, r *OpalNbintReply) {
	r.Evdw = b.MustFloat64()
	r.Ecoul = b.MustFloat64()
	b.MustFloat64sReuse(&r.Grad)
	r.Npairs = b.MustInt()
}

// Nbint calls nbint on server index i; a transport failure comes back as a
// *sciddle.ServerError.
func (c *OpalClient) Nbint(i int, coords []float64) (OpalNbintReply, error) {
	var r OpalNbintReply
	args := pvm.NewBuffer()
	PackOpalNbintArgsInto(args, coords)
	rep, err := c.Conn.Call(i, "nbint", args)
	if err != nil {
		return r, err
	}
	unpackOpalNbintReplyInto(rep, &r)
	return r, nil
}

// NbintPhaseInto calls nbint once on every server (one SPMD phase): pack writes
// the per-server arguments into a connection-owned request buffer, and the
// replies are unpacked into out (one slot per current server), reusing the
// capacity of its slice fields.  A caller that keeps out across phases
// allocates nothing per phase.  A transport failure comes back as a
// *sciddle.ServerError naming the failed server.
func (c *OpalClient) NbintPhaseInto(pack func(i int, args *pvm.Buffer), out []OpalNbintReply) error {
	reps, err := c.Conn.CallPhasePacked("nbint", pack)
	if err != nil {
		return err
	}
	for i, rep := range reps {
		unpackOpalNbintReplyInto(rep, &out[i])
	}
	return nil
}

// PackOpalNbintArgsInto packs the arguments of nbint into b.
func PackOpalNbintArgsInto(b *pvm.Buffer, coords []float64) {
	b.PackFloat64s(coords)
}
