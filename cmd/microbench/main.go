// Command microbench extracts the model's platform parameters the way
// Section 4.1 does: the isolated Opal kernel for the computation speed
// (Table 1), a ping-pong for the communication speed (Table 2), the
// working-set sweep of the memory hierarchy and the space-complexity
// table (Section 2.6).
//
// Examples:
//
//	microbench -table 1
//	microbench -table 2
//	microbench -table mem
//	microbench -table space -size large
//	microbench            # everything
package main

import (
	"flag"
	"fmt"
	"os"

	"opalperf/internal/harness"
	"opalperf/internal/platform"
)

func main() {
	var (
		table = flag.String("table", "all", "which table: 1, 2, mem, space, all")
		size  = flag.String("size", "large", "problem size for the space table")
		p     = flag.Int("servers", 1, "server count for the space table")
	)
	flag.Parse()

	pls := platform.All()
	want := func(k string) bool { return *table == "all" || *table == k }

	if want("1") {
		rows, err := harness.Table1(pls)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.Table1Report(rows))
	}
	if want("2") {
		rows, err := harness.Table2(pls)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.Table2Report(rows))
	}
	if want("mem") {
		rows, err := harness.MemoryHierarchy()
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.MemoryReport(rows))
	}
	if want("space") {
		sys, err := harness.Size(*size, 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.SpaceReport(sys, 0, *p))
		fmt.Println(harness.SpaceReport(sys, harness.EffectiveCutoff, *p))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "microbench:", err)
	os.Exit(1)
}
