// Command fig5 regenerates Figure 5 of the paper: success-rate comparison
// among the fixed, random, and heuristic service distribution policies
// over a 1000-hour request trace on a desktop/laptop/PDA smart space.
//
// Usage:
//
//	fig5 [-requests 5000] [-hours 1000] [-seed 2002]
package main

import (
	"flag"
	"fmt"
	"log"

	"ubiqos/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig5: ")
	requests := flag.Int("requests", 5000, "application requests over the horizon")
	hours := flag.Float64("hours", 1000, "simulated horizon (hours)")
	seed := flag.Int64("seed", 2002, "random seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial; result is identical either way)")
	flag.Parse()

	cfg := experiments.DefaultFig5Config()
	cfg.Requests = *requests
	cfg.HorizonHours = *hours
	cfg.Seed = *seed
	cfg.Workers = *workers
	r, err := experiments.RunFig5(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatFig5(r))
}
