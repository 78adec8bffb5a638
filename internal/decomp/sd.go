package decomp

import (
	"sort"

	"opalperf/internal/forcefield"
	"opalperf/internal/molecule"
	"opalperf/internal/pvm"
)

// RunSD executes the geometric (spatial-decomposition) method: the box is
// cut into p slabs along x; each server owns the mass centers inside its
// slab and additionally receives a ghost margin of one cut-off radius to
// its right.  A pair is computed by the owner of its left atom, so every
// pair is evaluated exactly once.  Per step the coordinator ships each
// server only its slab-plus-ghost coordinates — the SD communication
// saving — and receives the partial energies and the gradient of the
// region back.
func RunSD(t pvm.Task, sys *molecule.System, opts Options, p, steps int) (*Result, error) {
	opts = opts.withDefaults()
	if err := validate(sys, p, steps); err != nil {
		return nil, err
	}
	tids := t.Spawn("sd-server", p, sdServer)
	init := packInit(sys, opts, p)
	t.Mcast(tids, tagInit, init)

	res := &Result{Method: "SD", ServerTIDs: tids}
	pos := append([]float64(nil), sys.Pos...)
	grad := make([]float64, 3*sys.N)

	// Region assignment: slab owner by x coordinate, plus the ghost
	// margin.  Recomputed at every update step (membership is part of
	// the list update in SD codes).
	var regions [][]int32 // per server: owned atoms then ghosts
	var owned []int       // per server: count of owned atoms in regions[s]
	ghost := opts.Cutoff
	if ghost <= 0 || ghost > sys.Box {
		ghost = sys.Box // no effective cut-off: full replication
	}
	buildRegions := func() {
		regions = make([][]int32, p)
		owned = make([]int, p)
		slab := sys.Box / float64(p)
		ownerOf := func(x float64) int {
			s := int(x / slab)
			if s < 0 {
				s = 0
			}
			if s >= p {
				s = p - 1
			}
			return s
		}
		for s := 0; s < p; s++ {
			var own, ghosts []int32
			lo := float64(s) * slab
			hi := lo + slab
			for i := 0; i < sys.N; i++ {
				x := pos[3*i]
				switch {
				case ownerOf(x) == s:
					own = append(own, int32(i))
				case x >= hi && x < hi+ghost:
					ghosts = append(ghosts, int32(i))
				}
			}
			owned[s] = len(own)
			regions[s] = append(own, ghosts...)
		}
	}

	t0 := t.Now()
	res.StartSeconds = t0
	for step := 0; step < steps; step++ {
		se := StepEnergy{}
		update := step%opts.UpdateEvery == 0
		if update {
			buildRegions()
			se.Updated = true
		}
		// Ship each server its region: membership (on updates) and the
		// region coordinates (every step).
		for s := 0; s < p; s++ {
			b := pvm.NewBuffer().PackInt(boolToInt(update))
			if update {
				ids := make([]int64, len(regions[s]))
				for k, id := range regions[s] {
					ids[k] = int64(id)
				}
				b.PackInt64s(ids).PackInt(owned[s])
			}
			coords := make([]float64, 3*len(regions[s]))
			for k, id := range regions[s] {
				copy(coords[3*k:3*k+3], pos[3*id:3*id+3])
			}
			b.PackFloat64s(coords)
			res.CoordBytesOut += b.Bytes()
			t.Send(tids[s], tagCoords, b)
		}
		for i := range grad {
			grad[i] = 0
		}
		for range tids {
			b, src, _ := t.Recv(pvm.AnySrc, tagResult)
			res.CoordBytesIn += b.Bytes()
			se.EVdw += b.MustFloat64()
			se.ECoul += b.MustFloat64()
			se.PairChecks += b.MustInt()
			se.ActivePairs += b.MustInt()
			g := b.MustFloat64s()
			s := serverIndex(tids, src)
			for k, id := range regions[s] {
				grad[3*id] += g[3*k]
				grad[3*id+1] += g[3*k+1]
				grad[3*id+2] += g[3*k+2]
			}
			t.Charge("reduce", forcefield.ReduceOps.Times(float64(len(g))))
		}
		res.Steps = append(res.Steps, se)
	}
	res.EndSeconds = t.Now()
	t.Mcast(tids, tagStop, pvm.NewBuffer())
	return res, nil
}

// sdServer is the SD server loop: hold the region, rebuild the local pair
// list on updates, evaluate the region's pairs.
func sdServer(t pvm.Task) {
	b, src, _ := t.Recv(pvm.AnySrc, tagInit)
	d := unpackInit(b, 1)
	coord := src

	var region []int32 // owned atoms then ghosts
	var nOwned int
	pos := []float64(nil)  // region coordinates
	var pairs [][]int32    // local active list: per owned atom, partner region-indices
	grad := []float64(nil) // region gradient

	c2 := d.cutoff * d.cutoff
	useCut := d.cutoff > 0
	for {
		if t.Probe(coord, tagStop) {
			t.Recv(coord, tagStop)
			return
		}
		msg, _, tag := t.Recv(coord, pvm.AnyTag)
		if tag == tagStop {
			return
		}
		update := msg.MustInt() != 0
		if update {
			ids, err := msg.UnpackInt64s()
			if err != nil {
				panic(err)
			}
			region = make([]int32, len(ids))
			for k, v := range ids {
				region[k] = int32(v)
			}
			nOwned = msg.MustInt()
			pairs = make([][]int32, nOwned)
			grad = make([]float64, 3*len(region))
			pos = make([]float64, 3*len(region))
		}
		if err := msg.UnpackFloat64sInto(pos); err != nil {
			panic(err)
		}
		checks, excls := 0, 0
		if update {
			// Rebuild the local list.  Owned-owned pairs are ordered by
			// global index to avoid duplicates within the slab; every
			// owned-ghost pair belongs to this server unconditionally —
			// the ghost is spatially to the right, and the left owner
			// computes the crossing pair exactly once.
			for a := 0; a < nOwned; a++ {
				ps := pairs[a][:0]
				gi := region[a]
				for b := 0; b < len(region); b++ {
					gj := region[b]
					if b < nOwned && gj <= gi {
						continue
					}
					checks++
					if useCut && forcefield.Dist2(pos, a, b) > c2 {
						continue
					}
					if d.tb.excl.Excluded(int(gi), int(gj)) {
						excls++
						continue
					}
					ps = append(ps, int32(b))
				}
				pairs[a] = ps
			}
			chargeChecks(t, checks, excls)
		}
		var evdw, ecoul float64
		nq, nu, active := 0, 0, 0
		for k := range grad {
			grad[k] = 0
		}
		for a := 0; a < nOwned; a++ {
			gi := int(region[a])
			for _, bIdx := range pairs[a] {
				gj := int(region[bIdx])
				ev, ec, charged := evalRegionPair(d.tb, pos, a, int(bIdx), gi, gj, grad)
				evdw += ev
				ecoul += ec
				active++
				if charged {
					nq++
				} else {
					nu++
				}
			}
		}
		chargeEval(t, nq, nu)
		rep := pvm.NewBuffer().
			PackFloat64(evdw).PackFloat64(ecoul).
			PackInt(checks).PackInt(active).
			PackFloat64s(grad)
		t.Send(coord, tagResult, rep)
	}
}

// evalRegionPair evaluates a pair stored at region-local positions a, b
// with global ids gi, gj (for charge/type lookup).
func evalRegionPair(tb *nbTables, pos []float64, a, b, gi, gj int, grad []float64) (evdw, ecoul float64, charged bool) {
	c12, c6 := tb.lj.Coeffs(tb.types[gi], tb.types[gj])
	qq := forcefield.CoulombK * tb.charges[gi] * tb.charges[gj]
	ev, ec := forcefield.PairEnergy(pos, a, b, c12, c6, qq, grad)
	return ev, ec, qq != 0
}

func serverIndex(tids []int, tid int) int {
	i := sort.SearchInts(tids, tid)
	if i < len(tids) && tids[i] == tid {
		return i
	}
	for k, v := range tids {
		if v == tid {
			return k
		}
	}
	panic("decomp: unknown server tid")
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
