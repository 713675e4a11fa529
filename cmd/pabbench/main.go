// Command pabbench measures the streaming receiver as a service: N
// concurrent synthetic streams through a streamd hub (and again at
// 2N), reporting streams/sec, per-stream resident bytes, and decode
// latency percentiles as BENCH_stream.json. -stream-check gates a
// fresh run against a committed baseline the way pabprof -check does:
//
//	pabbench -streams 1000 -out BENCH_stream.json
//	pabbench -streams 200 -stream-check BENCH_stream.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pab/internal/cli"
)

func main() {
	os.Exit(realMain())
}

// realMain sweeps, reports, and (with a baseline) gates.
func realMain() int {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	streams := flag.Int("streams", 1000, "concurrent streams (also swept at double this)")
	check := flag.String("stream-check", "", "baseline BENCH_stream.json to gate against (exit 1 on regression)")
	maxRegress := flag.Float64("stream-max-regress", 2, "max allowed regression factor in -stream-check mode")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pabbench: unexpected arguments: %v\n", flag.Args())
		return cli.Usage()
	}
	if *streams < 1 {
		fmt.Fprintln(os.Stderr, "pabbench: -streams must be positive")
		return cli.Usage()
	}

	rep, err := runStream(*streams)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: stream: %v\n", err)
		return cli.ExitRuntime
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pabbench: %v\n", err)
		return cli.ExitRuntime
	} else {
		fmt.Fprintf(os.Stderr, "pabbench: wrote %s\n", *out)
	}

	var base *StreamReport
	if *check != "" {
		base, err = readStreamReport(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pabbench: baseline: %v\n", err)
			return cli.ExitRuntime
		}
	}
	problems := rep.CheckStream(base, *maxRegress)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "pabbench: REGRESSION: %s\n", p)
		}
		return cli.ExitRuntime
	}
	if *check != "" {
		fmt.Printf("ok vs %s (budget %.1fx, flatness %.2fx)\n", *check, *maxRegress, rep.FlatnessX)
	}
	return cli.ExitOK
}
