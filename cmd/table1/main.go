// Command table1 regenerates Table 1 of the paper: the comparison of the
// random, heuristic, and optimal service distribution algorithms on
// randomly generated service graphs over a PC and a PDA.
//
// Usage:
//
//	table1 [-graphs 150] [-seed 2002] [-link 100]
package main

import (
	"flag"
	"fmt"
	"log"

	"ubiqos/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")
	graphs := flag.Int("graphs", 150, "number of random service graphs")
	seed := flag.Int64("seed", 2002, "random seed")
	link := flag.Float64("link", 100, "PC-PDA bandwidth (Mbps)")
	extended := flag.Bool("extended", false, "add extension rows (refined heuristic, first-fit)")
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial; result is identical either way)")
	flag.Parse()

	cfg := experiments.DefaultTable1Config()
	cfg.Graphs = *graphs
	cfg.Seed = *seed
	cfg.LinkMbps = *link
	cfg.Extended = *extended
	cfg.Workers = *workers
	r, err := experiments.RunTable1(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatTable1(cfg, r))
}
