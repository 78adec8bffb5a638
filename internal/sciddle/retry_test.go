package sciddle

import (
	"errors"
	"testing"
	"time"

	"opalperf/internal/platform"
	"opalperf/internal/pvm"
)

// flakyTask is a client task whose reply waits on one victim server expire
// a scripted number of times before the fabric is consulted.  Like the
// real fabrics it only times out under a positive deadline: d <= 0 blocks.
// It also logs the call id of every request sent to the victim.
type flakyTask struct {
	pvm.Task
	victim   int
	timeouts int
	sentIDs  []int
}

func (f *flakyTask) RecvTimeout(src, tag int, d time.Duration) (*pvm.Buffer, int, int, error) {
	if src == f.victim && d > 0 && f.timeouts > 0 {
		f.timeouts--
		return nil, 0, 0, pvm.ErrRecvTimeout
	}
	b, s, g := f.Task.Recv(src, tag)
	return b, s, g, nil
}

func (f *flakyTask) Send(dst, tag int, b *pvm.Buffer) {
	if dst == f.victim && tag == tagRequest {
		id, err := b.Reader().UnpackInt()
		if err != nil {
			panic(err)
		}
		f.sentIDs = append(f.sentIDs, id)
	}
	f.Task.Send(dst, tag, b)
}

// TestCallTimeoutRetries drives the one reply-collection loop through both
// entry points: k expiries must resend the same call id k times and
// succeed while k <= retries, fail with a *ServerError naming the silent
// server once k > retries, and never fire without a timeout.
func TestCallTimeoutRetries(t *testing.T) {
	const victimIndex = 1
	entries := []struct {
		name   string
		invoke func(c *Conn) (*pvm.Buffer, error)
	}{
		{"Call", func(c *Conn) (*pvm.Buffer, error) {
			return c.Call(victimIndex, "double", pvm.NewBuffer().PackFloat64(21))
		}},
		{"CallPhasePacked", func(c *Conn) (*pvm.Buffer, error) {
			replies, err := c.CallPhasePacked("double", func(i int, args *pvm.Buffer) { args.PackFloat64(21) })
			if err != nil {
				return nil, err
			}
			return replies[victimIndex], nil
		}},
	}
	cases := []struct {
		name        string
		timeout     time.Duration
		retries     int
		expiries    int
		wantRetries int
		wantDead    bool
	}{
		{"no expiry", time.Second, 2, 0, 0, false},
		{"one expiry", time.Second, 2, 1, 1, false},
		{"expiries equal retries", time.Second, 2, 2, 2, false},
		{"expiries exceed retries", time.Second, 2, 3, 2, true},
		{"no retries allowed", time.Second, 0, 1, 0, true},
		{"no timeout blocks", 0, 2, 3, 0, false},
	}
	for _, entry := range entries {
		for _, tc := range cases {
			t.Run(entry.name+"/"+tc.name, func(t *testing.T) {
				s := pvm.NewSimVM(platform.FastCoPs(), nil)
				s.SpawnRoot("client", func(ct pvm.Task) {
					tids := ct.Spawn("server", 2, func(st pvm.Task) {
						Serve(st, echoService(), ServeOptions{})
					})
					ft := &flakyTask{Task: ct, victim: tids[victimIndex], timeouts: tc.expiries}
					c := Connect(ft, tids)
					c.SetCallTimeout(tc.timeout, tc.retries)
					rep, err := entry.invoke(c)
					ft.timeouts = 0 // let Close collect its acknowledgements

					if tc.wantDead {
						var se *ServerError
						if !errors.As(err, &se) {
							t.Errorf("err = %v, want a *ServerError", err)
						} else if se.Server != victimIndex || se.TID != tids[victimIndex] || !errors.Is(se, pvm.ErrRecvTimeout) {
							t.Errorf("ServerError = %+v, want server %d tid %d wrapping ErrRecvTimeout", se, victimIndex, tids[victimIndex])
						}
					} else if err != nil {
						t.Errorf("err = %v, want success", err)
					} else if got := rep.MustFloat64(); got != 42 {
						t.Errorf("reply = %v, want 42", got)
					}
					if got := c.Stats()[0].Retries; got != tc.wantRetries {
						t.Errorf("Retries = %d, want %d", got, tc.wantRetries)
					}
					if len(ft.sentIDs) != 1+tc.wantRetries {
						t.Errorf("victim got %d requests, want %d", len(ft.sentIDs), 1+tc.wantRetries)
					}
					for _, id := range ft.sentIDs {
						if id != ft.sentIDs[0] {
							t.Errorf("resend changed the call id: %v", ft.sentIDs)
						}
					}
					c.Close()
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
