package md

import (
	"fmt"

	"opalperf/internal/forcefield"
	"opalperf/internal/md/opalrpc"
	"opalperf/internal/pairlist"
	"opalperf/internal/pvm"
	"opalperf/internal/sciddle"
)

// opalServer is the state of one Opal computation server between RPCs: the
// replicated global data received at init and the server's own list of all
// active pairs.  It implements opalrpc.OpalHandler.
type opalServer struct {
	d        *nbData
	list     *pairlist.List
	pos      []float64 // scratch coordinate buffer
	grad     []float64 // scratch gradient accumulator
	box      float64
	cellList bool
}

// ServeOpal runs the Opal server loop on the given task until the client
// closes the connection.  accounting must match the client's setting;
// parties is servers+1.
func ServeOpal(t pvm.Task, accounting bool, parties int) {
	sciddle.Serve(t, newOpalService(), sciddle.ServeOptions{Accounting: accounting, Parties: parties})
}

// newOpalService builds one Opal server's service table and handler
// state.  The parallel client constructs these before spawning: the
// spawned Serve loop and the in-process macro dispatcher must share the
// same objects so server state stays consistent whichever path executes
// a call.
func newOpalService() *sciddle.Service {
	svc := sciddle.NewService("Opal")
	opalrpc.RegisterOpal(svc, &opalServer{})
	return svc
}

// Init receives the replicated global data (Section 2.6: the solute-solute,
// solute-solvent and solvent-solvent interaction parameters), computes the
// server's row assignment from the pseudo-random distribution and sets up
// the empty pair list.  Its cost is amortized over the simulation.
//
// rank is the server's position in the distribution, passed explicitly
// rather than derived from the spawn instance: after a server death the
// fault-tolerant client re-initializes the survivors over the smaller
// server set, and a survivor's rank there generally differs from its
// instance index.  Init is idempotent, so re-initialization is safe.
func (s *opalServer) Init(t pvm.Task, n, nsolute int, kinds, types []int64,
	charges, c12, c6 []float64, excl []int64, cutoff, box float64,
	celllist, strategy, seed, rank, nservers int) {

	s.box = box
	s.cellList = celllist != 0

	nt := isqrt(len(c12))
	if nt*nt != len(c12) || len(c6) != len(c12) {
		panic(fmt.Sprintf("md: malformed LJ tables: %d/%d entries", len(c12), len(c6)))
	}
	typesInt := make([]int, len(types))
	for i, v := range types {
		typesInt[i] = int(v)
	}
	// The []float64 arguments are stub-owned scratch (see RegisterOpal);
	// the server retains them across calls, so it must take copies.
	s.d = &nbData{
		n: n, nsolute: nsolute,
		types:   typesInt,
		charges: append([]float64(nil), charges...),
		lj: &forcefield.LJTable{NTypes: nt,
			C12: append([]float64(nil), c12...),
			C6:  append([]float64(nil), c6...)},
		excl:   forcefield.ExclusionsFromKeys(n, excl),
		cutoff: cutoff,
	}
	owners := pairlist.Owners(n, nservers, pairlist.Strategy(strategy), int64(seed))
	rows := pairlist.RowsOf(owners, rank)
	s.list = pairlist.NewList(n, rows)
	s.pos = make([]float64, 3*n)
	s.grad = make([]float64, 3*n)
	_ = kinds // mass-center kinds are implied by charge/type; kept for protocol fidelity
}

// Update rebuilds the server's list of all active pairs from fresh
// coordinates (the update routine of the model, cost a2 per checked pair).
func (s *opalServer) Update(t pvm.Task, coords []float64) (checks int) {
	s.mustInit()
	copy(s.pos, coords)
	checks, ops := s.d.updateList(s.list, s.pos, s.box, s.cellList)
	t.SetWorkingSet(s.list.Bytes() + s.d.bytes() + 8*len(s.pos)*2)
	t.Charge("update", ops)
	return checks
}

// Nbint evaluates the server's partial non-bonded energies and the
// gradient of the atomic interaction potential (the energy evaluation
// routine of the model, cost a3 per active pair).
func (s *opalServer) Nbint(t pvm.Task, coords []float64) (evdw, ecoul float64, grad []float64, npairs int) {
	s.mustInit()
	copy(s.pos, coords)
	for i := range s.grad {
		s.grad[i] = 0
	}
	evdw, ecoul, ops, npairs := s.d.evalList(s.pos, s.list, s.grad)
	t.Charge("nbint", ops)
	return evdw, ecoul, s.grad, npairs
}

func (s *opalServer) mustInit() {
	if s.d == nil {
		panic("md: opal server used before init")
	}
}

func isqrt(n int) int {
	r := 0
	for r*r < n {
		r++
	}
	return r
}
