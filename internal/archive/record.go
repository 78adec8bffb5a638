package archive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// Record kinds.  An archive interleaves three streams: the journal's
// per-run lifecycle events, one summary per completed run, and the
// control plane's cached terminal results.
const (
	KindEvent   = "event"
	KindSummary = "summary"
	KindResult  = "result"
)

// Record is the envelope every archived item travels in.  The envelope
// fields are the index: queries filter on them without decoding Data.
type Record struct {
	Kind   string          `json:"kind"`
	Run    string          `json:"run,omitempty"`    // run ID
	Spec   string          `json:"spec,omitempty"`   // canonical spec hash
	Tenant string          `json:"tenant,omitempty"` // submitting tenant
	Unix   int64           `json:"unix"`             // nanoseconds since the epoch
	Data   json.RawMessage `json:"data,omitempty"`
}

// RunSummary is the one-record digest of a completed run: everything the
// cross-run analytics need without replaying the journal — makespan and
// breakdown terms, the energies hash (the determinism witness), recovery
// and LoD counts, and the oracle's per-term residual means.
type RunSummary struct {
	Run    string `json:"run"`
	Spec   string `json:"spec"`
	Tenant string `json:"tenant,omitempty"`
	Label  string `json:"label,omitempty"` // human-readable grouping (scenario name, platform/size)

	Platform string `json:"platform,omitempty"`
	System   string `json:"system,omitempty"`
	Servers  int    `json:"servers"`
	Steps    int    `json:"steps"`

	Wall         float64 `json:"wall"` // makespan, virtual seconds
	EnergiesHash string  `json:"energies_hash,omitempty"`
	FinalEnergy  float64 `json:"final_energy,omitempty"`

	Par  float64 `json:"par"`
	Seq  float64 `json:"seq"`
	Comm float64 `json:"comm"`
	Sync float64 `json:"sync"`
	Idle float64 `json:"idle"`

	Respawns    int  `json:"respawns,omitempty"`
	Recoveries  int  `json:"recoveries,omitempty"`
	Faults      int  `json:"faults,omitempty"`
	Checkpoints int  `json:"checkpoints,omitempty"`
	Chaos       bool `json:"chaos,omitempty"` // fault/kill plane was armed

	OracleWindows   int                `json:"oracle_windows,omitempty"`
	OracleAnomalies int                `json:"oracle_anomalies,omitempty"`
	Residuals       map[string]float64 `json:"residuals,omitempty"` // per-term mean residual, seconds

	LoDMacroPhases    int `json:"lod_macro_phases,omitempty"`
	LoDFallbackPhases int `json:"lod_fallback_phases,omitempty"`

	// Unix mirrors the record envelope's stamp after a read; zero on
	// append lets the archive clock fill it.
	Unix int64 `json:"-"`
}

// AppendSummary records one run summary, fsynced — a summary is the
// distillation of a whole run, worth one disk flush.
func (a *Archive) AppendSummary(s RunSummary) error {
	if s.Run == "" {
		return fmt.Errorf("archive: summary needs a run ID")
	}
	if s.Spec == "" {
		return fmt.Errorf("archive: summary needs a spec hash")
	}
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return a.AppendSync(Record{
		Kind: KindSummary, Run: s.Run, Spec: s.Spec, Tenant: s.Tenant,
		Unix: s.Unix, Data: data,
	})
}

// MirrorEvent is the telemetry journal hook: pass it to
// telemetry.Journal.SetMirror and every rendered JSONL event line is
// archived as an event record under its run ID.  Append errors are
// swallowed — the journal must never fail a run because the warehouse
// disk did.
func (a *Archive) MirrorEvent(run, typ string, wall time.Time, line string) {
	trimmed := strings.TrimRight(line, "\n")
	a.Append(Record{
		Kind: KindEvent, Run: run, Unix: wall.UnixNano(),
		Data: json.RawMessage(trimmed),
	})
}

// Sink labels a destination archive for one producer's summaries: the
// tenant rides on every record, the label names the grouping in
// human-readable output.  The spec hash is the producer's: one run
// identity whichever front end configured the sink.  A nil *Sink is a
// valid no-op destination.
type Sink struct {
	Archive *Archive
	Run     string // run ID ("" lets the producer supply one)
	Tenant  string
	Label   string
}

// Put labels the summary and appends it.  The sink's Run/Tenant/Label,
// when set, override the producer's: the layer configuring the sink holds
// the authoritative job ID and tenant, while an unset sink field keeps
// whatever the producer filled in.  No-op on a nil sink.
func (s *Sink) Put(sum RunSummary) error {
	if s == nil || s.Archive == nil {
		return nil
	}
	if s.Run != "" {
		sum.Run = s.Run
	}
	if s.Tenant != "" {
		sum.Tenant = s.Tenant
	}
	if s.Label != "" {
		sum.Label = s.Label
	}
	return s.Archive.AppendSummary(sum)
}

// HashFloats digests a float64 series bit-exactly — the energies-hash
// helper.  Two runs with the same hash walked bit-identical trajectories.
func HashFloats(xs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// HashStrings digests a string tuple into a 12-byte hex spec hash — the
// helper harness.SpecHashOf derives the run identity with.
func HashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}
