// Command disq-bench regenerates the tables and figures of the paper's
// evaluation (Section 5). Each experiment is identified by the id used in
// DESIGN.md's per-experiment index.
//
// Usage:
//
//	disq-bench -list                 # show all experiment ids
//	disq-bench -experiment fig1a     # regenerate one figure
//	disq-bench -all                  # regenerate everything (slow)
//	disq-bench -experiment fig1e -reps 10 -out out/   # fewer reps, text dump
//	disq-bench -experiment fig1a -cpuprofile cpu.out  # profile one figure
//
// The paper uses 30 repetitions per configuration; -reps trades fidelity
// for speed. Performance benchmarks and their gates live next to the code
// they measure, as `go test -bench` benchmarks and plain tests; see
// DESIGN.md §6.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the actual entry point so the profiling defers run
// before the process exits (os.Exit skips defers).
func realMain() int {
	var (
		list  = flag.Bool("list", false, "list experiment ids and exit")
		expID = flag.String("experiment", "", "experiment id to regenerate")
		all   = flag.Bool("all", false, "regenerate every experiment")
		reps  = flag.Int("reps", 0, "repetitions per configuration (0 = paper default of 30)")
		evalN = flag.Int("objects", 0, "evaluation objects per repetition (0 = default of 100)")
		seed  = flag.Int64("seed", 0, "seed offset for all platforms")
		out   = flag.String("out", "", "directory to also write each result as <id>.txt")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "disq-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "disq-bench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "disq-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "disq-bench:", err)
			}
		}()
	}
	if err := run(*list, *expID, *all, *reps, *evalN, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "disq-bench:", err)
		return 1
	}
	return 0
}

func run(list bool, expID string, all bool, reps, evalN int, seed int64, out string) error {
	if list {
		fmt.Print(experimentList())
		return nil
	}
	var ids []string
	switch {
	case all:
		ids = allIDs()
	case expID != "":
		ids = []string{expID}
	default:
		return fmt.Errorf("pass -list, -experiment <id> or -all")
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		text, title, err := runOne(id, reps, evalN, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("== %s: %s\n%s\n", id, title, text)
		if out != "" {
			path := filepath.Join(out, id+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func runOne(id string, reps, evalN int, seed int64) (text, title string, err error) {
	fig, ok := lookup(id)
	if !ok {
		return "", "", fmt.Errorf("unknown experiment (use -list)")
	}
	start := time.Now()
	text, err = fig.run(reps, evalN, seed)
	if err != nil {
		return "", "", err
	}
	text += fmt.Sprintf("(regenerated in %s)\n", time.Since(start).Round(time.Millisecond))
	return text, fig.title, nil
}
