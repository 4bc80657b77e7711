// Command mkdata inspects the generated evaluation datasets: TPC-H
// LINEITEM rows, the Table II geometry, and the Figure 4 skew
// distributions, without running any jobs.
//
// Usage:
//
//	mkdata rows  [-scale N] [-seed N] [-n N]       print sample rows
//	mkdata info  [-scale N] [-skew Z]              print dataset geometry
//	mkdata skew  [-scale N] [-skew Z] [-top N]     print match distribution
//	mkdata policyxml                               print the Table I policy.xml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/tpch"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the requested view to stdout and
// errors to stderr, and returns the exit status: 2 for a bad flag
// value, 1 for a failed build.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Int("scale", 5, "TPC-H scale factor")
	seed := fs.Int64("seed", 1, "generator seed")
	skewZ := fs.Float64("skew", 1, "Zipf exponent (0, 1 or 2)")
	n := fs.Int64("n", 10, "rows to print")
	top := fs.Int("top", 10, "partitions to print")
	fs.Parse(args[1:])
	if *scale <= 0 {
		fmt.Fprintf(stderr, "mkdata: -scale must be positive, got %d\n", *scale)
		return 2
	}

	switch cmd {
	case "rows":
		gen := tpch.NewGenerator(uint64(*seed), *scale)
		if *n < 0 || *n > gen.NumRows() {
			fmt.Fprintf(stderr, "mkdata: -n must be in [0, %d] at scale %d, got %d\n", gen.NumRows(), *scale, *n)
			return 2
		}
		fmt.Fprintln(stdout, joinCols())
		for i := int64(0); i < *n; i++ {
			fmt.Fprintln(stdout, gen.Row(i).String())
		}
	case "info":
		ds, err := dataset.Build(dataset.Spec{Scale: *scale, Seed: *seed, Z: *skewZ})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "name:        %s\n", ds.Name())
		fmt.Fprintf(stdout, "rows:        %d\n", ds.TotalRows())
		fmt.Fprintf(stdout, "bytes:       %d (%.2f GB)\n", ds.TotalBytes(), float64(ds.TotalBytes())/1e9)
		fmt.Fprintf(stdout, "partitions:  %d\n", ds.NumPartitions())
		fmt.Fprintf(stdout, "predicate:   %s\n", ds.Predicate())
		fmt.Fprintf(stdout, "selectivity: %.4f%%\n", 100*float64(ds.TotalMatches())/float64(ds.TotalRows()))
		fmt.Fprintf(stdout, "matches:     %d\n", ds.TotalMatches())
	case "skew":
		ds, err := dataset.Build(dataset.Spec{Scale: *scale, Seed: *seed, Z: *skewZ})
		if err != nil {
			return fail(stderr, err)
		}
		dist := ds.MatchDistribution()
		type pc struct {
			part  int
			count int64
		}
		ranked := make([]pc, len(dist))
		for i, c := range dist {
			ranked[i] = pc{i, c}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].count > ranked[j].count })
		fmt.Fprintf(stdout, "matching records across %d partitions (z=%g, %d matches):\n",
			len(dist), *skewZ, ds.TotalMatches())
		for i := 0; i < *top && i < len(ranked); i++ {
			fmt.Fprintf(stdout, "  rank %2d: partition %3d holds %6d matches\n", i+1, ranked[i].part, ranked[i].count)
		}
	case "policyxml":
		doc, err := core.DefaultRegistry().PolicyXML()
		if err != nil {
			return fail(stderr, err)
		}
		stdout.Write(doc)
	default:
		return usage(stderr)
	}
	return 0
}

func joinCols() string {
	out := ""
	for i, c := range tpch.LineItemSchema.Columns() {
		if i > 0 {
			out += "|"
		}
		out += c
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "mkdata:", err)
	return 1
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: mkdata rows|info|skew|policyxml [flags]")
	return 2
}
