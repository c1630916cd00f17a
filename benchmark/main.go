// Command benchmark is the repository's benchmark: it assembles the
// gateway the way cmd/gateway's serve mode does, drives it over host
// loopback TCP from the same process, checks what came out, and prints
// every end-to-end and per-layer metric by name with its unit.
//
//	bash benchmark/run.sh --seed N                      every workload, traced
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --selfcheck                   two sets of runs, compared
//
// See README.md in this directory for what is measured and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	selfcheck bool
	manifest  bool
	child     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty = every workload, traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for keys, payloads, principal/channel assignment and the open-loop schedule")
	flag.Float64Var(&o.seconds, "seconds", referenceSeconds, "run length the operation counts are scaled to; the same value always means the same counts")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 adds the traced repetition and prints the per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole benchmark twice, alternating workload order, and compare the two sets against the bounds")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.StringVar(&o.child, "child", "", "internal: run one repetition described by this JSON and print its result")
	flag.Parse()
	o.trace = *trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	switch {
	case o.child != "":
		var cfg repConfig
		if err := json.Unmarshal([]byte(o.child), &cfg); err != nil {
			return fmt.Errorf("decode -child: %w", err)
		}
		return json.NewEncoder(os.Stdout).Encode(runRepetition(ctx, cfg))
	case o.manifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	scale := o.seconds / referenceSeconds
	if o.selfcheck {
		return runSelfcheck(ctx, o.seed, scale)
	}
	if o.workload == "" {
		correct := true
		for _, w := range workloads {
			rep, err := runWorkload(ctx, w.scaled(scale), o.seed, true)
			if err != nil {
				return err
			}
			rep.print(os.Stdout)
			correct = correct && rep.correct()
		}
		if !correct {
			return fmt.Errorf("output checks failed")
		}
		return nil
	}
	spec, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	rep, err := runWorkload(ctx, spec.scaled(scale), o.seed, o.trace)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if err := rep.printResultLine(os.Stdout, o.trace); err != nil {
		return err
	}
	if !rep.correct() {
		return fmt.Errorf("output checks failed on %s", spec.Name)
	}
	return nil
}
