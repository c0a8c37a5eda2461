// Command bench is the repository's benchmark (see BENCHMARK.json at the
// root and README.md here). It drives the system only through public
// APIs: the lpsgd facade for the end-to-end runs and each layer's
// exported functions, behind one adapter file per layer, for the
// per-layer numbers.
//
//	go run ./bench --workload cnn_fp32_chan --seed 1 --seconds 15 --trace 0
//	go run ./bench --workload cnn_fp32_chan --seed 1 --seconds 15 --trace 1
//	go run ./bench -seed 1 -out bench/out/new.jsonl      # all workloads, both passes
//	go run ./bench compare old.jsonl new.jsonl
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; everything before it is
// the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeed is the seed BENCHMARK.json records; a claim must also hold
// on a second one.
const defaultSeed = 1

// result is the contract's last-line object.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// record is one run as -out appends it: the result plus what is needed
// to compare result files responsibly.
type record struct {
	Workload    string      `json:"workload"`
	Trace       int         `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	LossDigest  string      `json:"loss_digest"`
	WindowMs    []float64   `json:"window_ms"` // step time of every timed window, in run order
	Warnings    []string    `json:"warnings,omitempty"`
	Failures    []string    `json:"failures,omitempty"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run (default: all four, both passes)")
	seed := flag.Uint64("seed", defaultSeed, "drives data, initialisation and shuffle")
	seconds := flag.Float64("seconds", 15, "least measuring time of the untraced run")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "append one JSON record per run to this file (input of compare)")
	outDir := flag.String("outdir", "bench/out", "directory the span traces are written to")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	var todo []*workload
	passes := []int{*trace}
	if *name == "" {
		todo, passes = workloads, []int{0, 1}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		todo = []*workload{w}
	}
	ok := true
	var last result
	for _, w := range todo {
		for _, pass := range passes {
			rec := runOnce(w, *seed, *seconds, pass, *outDir)
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					ok = false
				}
			}
			ok = ok && rec.Result.Correct
			last = rec.Result
		}
	}
	if *name != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runOnce performs one pass of one workload and prints its report.
func runOnce(w *workload, seed uint64, seconds float64, pass int, outDir string) record {
	logf := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	fp := machineFingerprint(seed, w.workers)
	fmt.Printf("== %s  trace=%d  seed=%d  K=%d  GOMAXPROCS=%d/%d cores  %s  %s  commit %s\n",
		w.name, pass, seed, w.workers, fp.GOMAXPROCS, fp.NProc, fp.CPU, fp.GoVersion, fp.Commit)
	if fp.Oversubscribed {
		fmt.Printf("   oversubscribed=true: %d ranks on %d cores time-share; wall-clock scaling is not meaningful\n", w.workers, fp.NProc)
	}
	rec := record{Workload: w.name, Trace: pass, Seconds: seconds, Fingerprint: fp}
	var e *e2eResult
	var ms *metricSet
	if pass == 0 {
		e = runE2E(w, seed, seconds, logf)
		ms = e2eMetrics(e)
		rec.Failures, rec.Warnings = e.failures, e.warnings
	} else {
		t := runTraced(w, seed, outDir, logf)
		e, ms = t.untraced, t.metrics
		rec.Failures, rec.Warnings = t.failures, t.warnings
		if t.trace != "" {
			fmt.Printf("   spans written to %s\n", t.trace)
		}
	}
	for n, v := range ms.values {
		// JSON has no NaN; the failure that caused one is already recorded.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			ms.values[n] = measured{Unit: v.Unit}
		}
	}
	rec.LossDigest = fmt.Sprintf("%016x", e.digest)
	rec.WindowMs = e.windowMs
	rec.Result = result{
		Correct:   len(rec.Failures) == 0,
		Attempted: max(e.attempted, 1),
		Failed:    e.failed,
		Metrics:   ms.values,
	}
	if !rec.Result.Correct && rec.Result.Failed == 0 {
		// A failed check outside any one job covers every step of the run.
		rec.Result.Failed = rec.Result.Attempted
	}
	printReport(w, e, ms, rec)
	return rec
}

// e2eMetrics maps the untraced run onto the end-to-end metric names.
func e2eMetrics(e *e2eResult) *metricSet {
	ms := newMetricSet(endToEnd)
	ms.set("samples_per_s", e.samplesPerS)
	ms.set("step_ms_p50", e.stepMsP50)
	ms.set("wire_bytes_per_step", e.wirePerStep)
	ms.set("allocs_per_step", e.allocsPerStep)
	ms.set("time_to_target_s", e.timeToTargetS)
	ms.set("final_test_accuracy", e.finalAcc)
	ms.set("setup_s", e.setupS)
	return ms
}

func printReport(w *workload, e *e2eResult, ms *metricSet, rec record) {
	fmt.Printf("   %d jobs over %d sub-seeds, %d timed windows of %d steps (first %d of %d windows per job discarded as warm-up)\n",
		e.jobs, w.subSeeds, e.nWindows, w.windowSteps(), w.warm, w.windows)
	fmt.Printf("   loss_digest %s   steps_to_target(%.2f) %.1f   step_ms: quietest block %.4f, all windows p50 %.4f p95 %.4f   min window loss %.4g\n",
		rec.LossDigest, w.target, e.stepsToTarget, e.stepMsP50, median(e.windowMs), e.stepMsP95, e.minLoss)
	share := 0.0
	if rec.Result.Attempted > 0 {
		share = float64(rec.Result.Failed) / float64(rec.Result.Attempted)
	}
	fmt.Printf("   failed_share %.4g (%d of %d steps)\n", share, rec.Result.Failed, rec.Result.Attempted)
	for _, d := range ms.defs {
		if v, ok := ms.values[d.name]; ok {
			fmt.Printf("   %-36s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, s := range rec.Warnings {
		fmt.Printf("   WARNING %s\n", s)
	}
	for _, s := range rec.Failures {
		fmt.Printf("   FAILED  %s\n", s)
	}
	if len(rec.Failures) == 0 {
		fmt.Println("   correct: replicas in sync, every loss finite, wire bytes == predicted x steps, repeated sub-seeds reproduce their digest")
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
