package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 4, 8, 200} {
		got, err := MapN(workers, items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	items := make([]int, 37)
	for i := range items {
		items[i] = 3*i + 1
	}
	f := func(i, v int) (string, error) { return fmt.Sprintf("%d:%d", i, v), nil }
	seq, err := MapN(1, items, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MapN(8, items, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result %d: sequential %q, parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 50)
	_, err := MapN(4, items, func(i, _ int) (int, error) {
		if i >= 10 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom error, got %v", err)
	}
}

func TestMapErrorLowestObserved(t *testing.T) {
	// Every item fails. The pool must report the lowest-indexed failure
	// it observed; with workers == 1 that is deterministically item 0.
	_, err := MapN(1, make([]int, 64), func(i, _ int) (int, error) {
		return 0, fmt.Errorf("item %d", i)
	})
	if err == nil || err.Error() != "item 0" {
		t.Fatalf("want sequential fail-fast \"item 0\", got %v", err)
	}
	_, err = MapN(8, make([]int, 64), func(i, _ int) (int, error) {
		return 0, fmt.Errorf("item %d", i)
	})
	var idx int
	if err == nil {
		t.Fatal("want an error from the parallel pool")
	}
	if _, scanErr := fmt.Sscanf(err.Error(), "item %d", &idx); scanErr != nil {
		t.Fatalf("error %q does not name a failing item", err)
	}
}

func TestMapBoundedWorkers(t *testing.T) {
	var cur, peak atomic.Int64
	items := make([]int, 200)
	_, err := MapN(3, items, func(i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds worker bound 3", p)
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(5)
	if Workers() != 5 {
		t.Fatalf("Workers() = %d, want 5", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}
