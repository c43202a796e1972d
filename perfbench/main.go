// Command perfbench is the wall-clock OO1 client/server benchmark. It
// serves a generated OO1 base in the production configuration of
// `gomcli serve -tx -wal DIR -coherence -debug` over TCP loopback, drives
// closed-loop OO1 clients against it for a fixed window, checks the
// results, and prints the metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every call into oo1, core and the server
// client and reports per-layer metrics instead. Build and run it with
// perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload lookup-miss --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: drives the base generator and every client's operation stream")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for WAL directories and span files")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		todo = append(todo, w)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		workdir: *workdir,
	}
	ok := true
	for _, w := range todo {
		meta := collectMeta(*workdir)
		meta.Workload, meta.Seed, meta.Seconds, meta.Traced = w.name, *seed, *seconds, rc.traced
		res, err := benchmark(w, rc, meta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// benchmark runs one workload and builds its result, printing the run
// metadata and the named metrics first.
func benchmark(w *workload, rc runConfig, meta runMeta) (*result, error) {
	win, failures, s, err := runWorkload(w, rc)
	if err != nil {
		return nil, err
	}
	defer s.close()
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Printf("meta %s\n", metaLine)
	for _, f := range failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	res := &result{Correct: len(failures) == 0}
	res.Attempted, res.Failed = win.tally()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !rc.traced {
		printNamed(os.Stdout, w, win)
		res.Metrics = endToEnd(w, win)
		return res, nil
	}
	res.Metrics = perLayer(w, s, win)
	printLayers(os.Stdout, res.Metrics)
	var recs []*recorder
	for _, c := range s.clients {
		recs = append(recs, c.rec)
	}
	path := filepath.Join(rc.workdir, "spans-"+w.name+".tsv")
	if err := writeSpans(path, recs); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}
