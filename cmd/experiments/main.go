// Command experiments runs the whole evaluation and scores every tracked
// paper claim, emitting a pass/fail ledger — the executable form of
// EXPERIMENTS.md.
//
// Examples:
//
//	experiments -quick
//	experiments -json results/claims.json -md results/claims.md
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ownsim/internal/core"
	"ownsim/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	quick := flag.Bool("quick", false, "use the reduced simulation budget")
	jsonPath := flag.String("json", "", "write the ledger as JSON to this path")
	mdPath := flag.String("md", "", "write the ledger as Markdown to this path")
	flag.Parse()

	b := core.FullBudget()
	if *quick {
		b = core.QuickBudget()
	}
	rep := report.Evaluate(b, time.Now())
	fmt.Fprintln(os.Stderr, rep.Census)

	for _, c := range rep.Claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("%-4s %-32s %s\n", verdict, c.ID, c.Measured)
	}
	fmt.Printf("\n%d/%d claims reproduced\n", rep.Passed(), len(rep.Claims))

	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(rep.Markdown()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Passed() < len(rep.Claims) {
		os.Exit(1)
	}
}
