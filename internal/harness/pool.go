package harness

import "opalperf/internal/parallel"

// RunMany executes every spec concurrently on the default worker pool
// (parallel.Workers: GOMAXPROCS, or the -jobs flag of the cmd/ binaries)
// and returns the outcomes in input order, failing with the
// lowest-indexed error observed.  Each Run builds its own discrete-event
// kernel whose token-handoff scheduler is deterministic regardless of
// host scheduling, so concurrency lives strictly *between* runs and the
// outcomes are byte-identical to the sequential loop (see DESIGN.md,
// "Host concurrency").
func RunMany(specs []RunSpec) ([]RunOutcome, error) {
	return parallel.Map(specs, func(_ int, spec RunSpec) (RunOutcome, error) {
		return Run(spec)
	})
}
