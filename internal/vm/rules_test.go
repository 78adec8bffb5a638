package vm

import (
	"math"
	"testing"
)

// cycleFaults is a FaultModel that replays fixed schedules in hook-call
// order, so two kernels see the same faults only if they consult the hooks
// in the same sequence.
type cycleFaults struct {
	sends    [][2]float64 // (delay, resend) per SendFault call, cycled
	straggle []float64    // per BarrierFault call, cycled
	nSend    int
	nBarrier int
}

func (f *cycleFaults) SendFault(src, dst, bytes int) (float64, float64) {
	f.nSend++
	if len(f.sends) == 0 {
		return 0, 0
	}
	s := f.sends[(f.nSend-1)%len(f.sends)]
	return s[0], s[1]
}

func (f *cycleFaults) ComputeFault(int) float64 { return 0 }

func (f *cycleFaults) BarrierFault(int) float64 {
	f.nBarrier++
	if len(f.straggle) == 0 {
		return 0
	}
	return f.straggle[(f.nBarrier-1)%len(f.straggle)]
}

type tracedSeg struct {
	kind       SegKind
	start, end uint64 // Float64bits
}

// segLog records every traced segment per process.
type segLog map[int][]tracedSeg

func (l segLog) Segment(proc int, _ string, kind SegKind, start, end Time) {
	l[proc] = append(l[proc], tracedSeg{kind, math.Float64bits(start), math.Float64bits(end)})
}

// TestRulesAreWhatSendRecvBarrierCharge runs one three-process exchange on
// twin kernels: on the first the processes call Send, Recv and Barrier and
// the scheduler decides the order; on the second nothing is scheduled at
// all — the test applies Transmit, Accept and Arrive to the bare processes
// in the order the scheduler picks.  Clocks, Stats, traced segments, the
// channel horizon and the fault-hook call counts must agree bit for bit
// under contention, delays, resends and stragglers, which pins that the
// whole price of a message or a barrier — the fault plane included — is
// inside the rule and none of it in the primitive that calls it.
//
// The exchange (all three start at t=0, so ids break every tie):
//
//	p0: Send(p2, 1000 B)  Barrier  Recv(p2)
//	p1: Send(p2, 2000 B)  Barrier            — queues behind p0's transfer
//	p2: Recv(p0) Recv(p1) Barrier  Send(p0, 500 B)
func TestRulesAreWhatSendRecvBarrierCharge(t *testing.T) {
	const parties = 3
	cases := []struct {
		name   string
		comm   FixedCost
		faults func() *cycleFaults // nil: no fault model installed
	}{
		{"fault-free", FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 2e-4}, nil},
		{"inert model", FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 2e-4},
			func() *cycleFaults { return &cycleFaults{} }},
		{"delay", FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 2e-4},
			func() *cycleFaults { return &cycleFaults{sends: [][2]float64{{5e-4, 0}, {0, 0}}} }},
		{"resend", FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 2e-4},
			func() *cycleFaults { return &cycleFaults{sends: [][2]float64{{0, 3e-4}, {0, 0}, {0, 7e-5}}} }},
		{"straggle", FixedCost{Overhead: 1e-3, ByteRate: 1e6, Latency: 1e-4, SyncDelay: 2e-4},
			func() *cycleFaults { return &cycleFaults{straggle: []float64{0, 7e-4, 1e-5}} }},
		{"all faults, free sync", FixedCost{Overhead: 3e-4, ByteRate: 7e5, Latency: 1.3e-4},
			func() *cycleFaults {
				return &cycleFaults{
					sends:    [][2]float64{{5e-4, 3e-4}, {1e-3, 0}, {0, 1.1e-4}},
					straggle: []float64{2e-4, 0, 9e-4},
				}
			}},
	}
	for _, c := range cases {
		// Twin one: the primitives, scheduled.
		fineLog := segLog{}
		fine := NewKernel(c.comm, fineLog)
		var fineFaults *cycleFaults
		if c.faults != nil {
			fineFaults = c.faults()
			fine.SetFaults(fineFaults)
		}
		fine.NewProc("p0", nil, func(p *Proc) {
			p.Send(2, 1, nil, 1000)
			p.Barrier("b", parties)
			p.RecvSrcTag(2, 2)
		})
		fine.NewProc("p1", nil, func(p *Proc) {
			p.Send(2, 1, nil, 2000)
			p.Barrier("b", parties)
		})
		fine.NewProc("p2", nil, func(p *Proc) {
			p.RecvSrcTag(0, 1)
			p.RecvSrcTag(1, 1)
			p.Barrier("b", parties)
			p.Send(0, 2, nil, 500)
		})
		if err := fine.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		// Twin two: the rules, applied by hand to processes that never run.
		ruleLog := segLog{}
		rules := NewKernel(c.comm, ruleLog)
		var ruleFaults *cycleFaults
		if c.faults != nil {
			ruleFaults = c.faults()
			rules.SetFaults(ruleFaults)
		}
		p0 := rules.NewProc("p0", nil, nil)
		p1 := rules.NewProc("p1", nil, nil)
		p2 := rules.NewProc("p2", nil, nil)
		a02 := p0.Transmit(2, 1000)
		waiting, released := p0.Arrive(nil, parties)
		a12 := p1.Transmit(2, 2000)
		waiting, released = p1.Arrive(waiting, parties)
		if released {
			t.Fatalf("%s: barrier released with %d of %d parties", c.name, len(waiting), parties)
		}
		p2.Accept(a02, 1000)
		p2.Accept(a12, 2000)
		if _, released = p2.Arrive(waiting, parties); !released {
			t.Fatalf("%s: last arrival did not release the barrier", c.name)
		}
		a20 := p2.Transmit(0, 500)
		p0.Accept(a20, 500)

		for id, fp := range fine.Procs() {
			rp := rules.Proc(id)
			if math.Float64bits(fp.Now()) != math.Float64bits(rp.Now()) {
				t.Errorf("%s: p%d clock: primitives %v, rules %v", c.name, id, fp.Now(), rp.Now())
			}
			fs, rs := fp.Stats(), rp.Stats()
			for k := range fs.Seg {
				if math.Float64bits(fs.Seg[k]) != math.Float64bits(rs.Seg[k]) {
					t.Errorf("%s: p%d %v seconds: primitives %v, rules %v", c.name, id, SegKind(k), fs.Seg[k], rs.Seg[k])
				}
			}
			if fs != rs {
				t.Errorf("%s: p%d stats:\nprimitives %+v\nrules      %+v", c.name, id, fs, rs)
			}
			if len(fineLog[id]) == 0 || len(fineLog[id]) != len(ruleLog[id]) {
				t.Errorf("%s: p%d traced %d segments through primitives, %d through rules",
					c.name, id, len(fineLog[id]), len(ruleLog[id]))
				continue
			}
			for i, s := range fineLog[id] {
				if s != ruleLog[id][i] {
					t.Errorf("%s: p%d segment %d: primitives %+v, rules %+v", c.name, id, i, s, ruleLog[id][i])
				}
			}
		}
		if first := fineLog[1][0]; first.kind != SegIdle || first.start != 0 {
			t.Errorf("%s: p1 did not queue behind p0's transfer; the exchange exercises no contention", c.name)
		}
		if math.Float64bits(fine.chanFree) != math.Float64bits(rules.chanFree) {
			t.Errorf("%s: channel horizon: primitives %v, rules %v", c.name, fine.chanFree, rules.chanFree)
		}
		if c.faults != nil {
			if fineFaults.nSend != 3 || fineFaults.nBarrier != parties {
				t.Errorf("%s: primitives consulted %d send / %d barrier hooks, want 3 / %d",
					c.name, fineFaults.nSend, fineFaults.nBarrier, parties)
			}
			if ruleFaults.nSend != fineFaults.nSend || ruleFaults.nBarrier != fineFaults.nBarrier {
				t.Errorf("%s: rules consulted %d send / %d barrier hooks, primitives %d / %d",
					c.name, ruleFaults.nSend, ruleFaults.nBarrier, fineFaults.nSend, fineFaults.nBarrier)
			}
		}
	}
}
