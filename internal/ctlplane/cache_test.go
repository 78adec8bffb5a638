package ctlplane

import (
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"opalperf/internal/harness"
	"opalperf/internal/molecule"
)

// TestWarmKeyNeverWaitsForColdKey holds a cold key's generation open and
// requires a /predict on a warm key to complete meanwhile (were the
// generation under the cache's lock, the test would hang here).  Once the
// cold key is released, every waiter on it receives the one system
// generated for it, and each key was generated exactly once, alone.
func TestWarmKeyNeverWaitsForColdKey(t *testing.T) {
	s := New(Config{Workers: 1})
	cache := s.pred.systems
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	calls := map[systemKey]int{}
	cache.gen = func(size string, scale float64) (*molecule.System, error) {
		mu.Lock()
		calls[systemKey{size, scale}]++
		mu.Unlock()
		if size == "large" {
			close(held) // a second generation of the key panics here
			<-release
		}
		return harness.Size(size, scale)
	}
	h := s.Handler()
	predict := func(size string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/predict?platform=j90&size="+size+"&scale=0.05&servers=4&steps=100", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %s = %d: %s", size, rec.Code, rec.Body)
		}
	}

	predict("small") // warm key A

	const waiters = 4
	got := make([]*molecule.System, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = cache.get("large", 0.05)
		}()
	}
	<-held
	predict("small") // completes while key B's generation is held
	close(release)
	wg.Wait()

	for i := range got {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("waiter %d received %p, waiter 0 %p: want the one generated system", i, got[i], got[0])
		}
	}
	predict("large") // the HTTP path answers from the same entry
	if sys, _ := cache.get("large", 0.05); sys != got[0] {
		t.Fatal("the entry changed after it was filled")
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[systemKey]int{{"small", 0.05}: 1, {"large", 0.05}: 1}
	if !maps.Equal(calls, want) {
		t.Fatalf("generations = %v, want %v (each named key once, nothing else)", calls, want)
	}
}

// TestCachesStayBounded asks /predict for 400 distinct scales: the system
// and machine caches keep at most maxCacheKeys keys each, the most recent.
// A generation still in flight when its key is evicted serves the asker
// already waiting on it, and the key generates afresh when asked again.
func TestCachesStayBounded(t *testing.T) {
	s := New(Config{Workers: 1})
	cache := s.pred.systems
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	calls := map[systemKey]int{}
	cache.gen = func(size string, scale float64) (*molecule.System, error) {
		mu.Lock()
		calls[systemKey{size, scale}]++
		first := len(calls) == 1
		mu.Unlock()
		if first {
			close(held)
			<-release
		}
		return molecule.TestComplex(4, 8, 1), nil
	}
	var waited *molecule.System
	done := make(chan struct{})
	go func() {
		defer close(done)
		waited, _ = cache.get("small", 1e-4)
	}()
	<-held

	h := s.Handler()
	const keys = 400
	var scale string
	for k := 1; k <= keys; k++ {
		scale = fmt.Sprintf("%g", 0.2+float64(k)*1e-4)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/predict?platform=j90&size=small&scale="+scale+"&servers=4&steps=100", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict key %d = %d: %s", k, rec.Code, rec.Body)
		}
	}
	if n := len(cache.entries.m); n != maxCacheKeys || len(cache.entries.order) != n {
		t.Fatalf("system cache holds %d keys (%d in order), want %d", n, len(cache.entries.order), maxCacheKeys)
	}
	if n := len(s.pred.machines.m); n != maxCacheKeys || len(s.pred.machines.order) != n {
		t.Fatalf("machine cache holds %d keys (%d in order), want %d", n, len(s.pred.machines.order), maxCacheKeys)
	}
	if newest := cache.entries.order[maxCacheKeys-1]; fmt.Sprint(newest.scale) != scale {
		t.Fatalf("the newest key is %v, want scale %s", newest, scale)
	}

	close(release)
	<-done
	if waited == nil {
		t.Fatal("the waiter on an evicted in-flight entry received no system")
	}
	if _, err := cache.get("small", 1e-4); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := calls[systemKey{"small", 1e-4}]; n != 2 {
		t.Fatalf("the evicted key generated %d times, want 2 (once before eviction, once after)", n)
	}
}
