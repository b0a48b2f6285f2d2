// Quickstart: compile a small BL program, run the paper's whole pipeline —
// profile, build branch prediction state machines, replicate code — and
// print the measured improvement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

// The program's hot branch alternates between taken and not-taken, the
// paper's Figure 1 example: plain profile prediction is wrong half the
// time, but a two-state replicated loop predicts it perfectly.
const src = `
var total int;

func main() int {
    for var i int = 0; i < 100000; i = i + 1 {
        if i % 2 == 0 {
            total = total + 3;
        } else {
            total = total - 1;
        }
    }
    print(total);
    return total;
}`

func main() {
	res, err := core.RunBL(src, core.Config{MaxStates: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart: code replication on an alternating branch")
	fmt.Printf("  branches profiled:   %d events over %d sites\n",
		res.Profile.Counts.TotalAll(), res.Profile.NSites)
	fmt.Printf("  profile baseline:    %.2f%% mispredicted\n", res.Baseline.Rate())
	fmt.Printf("  replicated:          %.2f%% mispredicted\n", res.Transformed.Rate())
	fmt.Printf("  code size:           %d -> %d instructions (factor %.2f)\n",
		res.Stats.InstrsBefore, res.Stats.InstrsAfter, res.SizeFactor())
	if res.Baseline.Checksum == res.Transformed.Checksum {
		fmt.Println("  semantics:           identical checksums — transformation is sound")
	} else {
		log.Fatalf("checksum mismatch: %d vs %d", res.Baseline.Checksum, res.Transformed.Checksum)
	}
	for i := range res.Choices {
		c := &res.Choices[i]
		if c.Loop != nil {
			fmt.Printf("  machine for branch %d: %v\n", c.Site, c.Loop)
		}
	}
}
