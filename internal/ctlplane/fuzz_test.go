package ctlplane

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit drives opald's front door with arbitrary input: a body
// posted to /v1/runs and a query string sent to /v1/predict, on a fresh
// server whose workers never start, so an accepted job only queues.  A
// submission answers 202, 400, 429 or 503 and never panics; an accepted
// spec re-canonicalizes to itself under the same hash; a prediction
// answers 200 or 400.  The seed corpus is in testdata/fuzz/FuzzSubmit.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`{"size":"small","scale":0.02,"servers":2,"steps":6,"update_every":2}`),
		"platform=j90&size=small&scale=0.05&servers=4&steps=100")
	f.Add([]byte(`{"steps":0}`), "servers=0&steps=10")
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		s := New(Config{
			QueueCap: 4, TenantRate: 1e9, TenantBurst: 1e9, TenantJobs: -1,
			PredictRate: 1e9, PredictBurst: 1e9,
		})
		h := s.Handler()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs", bytes.NewReader(body)))
		switch rec.Code {
		case 202:
			var acc struct {
				JobID string `json:"job_id"`
				Hash  string `json:"hash"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				t.Fatalf("202 with an unreadable body %q: %v", rec.Body, err)
			}
			snap, ok := s.store.snapshotOf(acc.JobID)
			if !ok {
				t.Fatalf("accepted job %s is not in the store", acc.JobID)
			}
			c, err := snap.Spec.Canonicalize(s.cfg.Limits)
			if err != nil || c != snap.Spec || c.Hash() != acc.Hash {
				t.Fatalf("canonical spec %+v (hash %s) re-canonicalizes to %+v (hash %s), err %v",
					snap.Spec, acc.Hash, c, c.Hash(), err)
			}
		case 400, 429, 503:
		default:
			t.Fatalf("POST /v1/runs %q answered %d: %s", body, rec.Code, rec.Body)
		}

		rec = httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/predict", nil)
		req.URL.RawQuery = query
		h.ServeHTTP(rec, req)
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("GET /v1/predict?%s answered %d: %s", query, rec.Code, rec.Body)
		}
	})
}
