package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// compare mode: `bench compare old.jsonl new.jsonl` reads two files of
// -out records (several runs of each workload, ideally on alternating
// checkouts) and prints one row per workload × metric — both medians
// with their quartiles, and the ratio with its base. An end-to-end
// metric that got worse by more than its bound is `regressed` and makes
// the exit code non-zero; one whose run-to-run quartile spread exceeds
// its bound on either side is `unresolved`, never `unchanged`.

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.jsonl new.jsonl")
		return 2
	}
	oldRuns, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	newRuns, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows, regressed := compareRuns(oldRuns, newRuns)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1..q3] (n)\tnew median [q1..q3] (n)\tnew/old\tbound\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.bounded {
			bound = fmt.Sprintf("%.3g", r.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g..%.6g] (%d)\t%.6g [%.6g..%.6g] (%d)\t%.4f of %.6g\t%s\t%s\n",
			r.workload, r.metric, r.unit,
			r.oldMed, r.oldQ1, r.oldQ3, r.oldN,
			r.newMed, r.newQ1, r.newQ3, r.newN,
			r.ratio, r.oldMed, bound, r.verdict)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	for _, note := range digestNotes(oldRuns, newRuns) {
		fmt.Println(note)
	}
	if regressed > 0 {
		fmt.Printf("%d metric(s) regressed beyond their bound\n", regressed)
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20) // a record is ~5 KB; 1 MiB bounds a corrupt line
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return out, nil
}

type compareRow struct {
	workload, metric, unit string
	oldMed, oldQ1, oldQ3   float64
	newMed, newQ1, newQ3   float64
	oldN, newN             int
	ratio                  float64
	bounded                bool
	bound                  float64
	verdict                string
}

// values groups a file's runs as workload → metric → values.
func values(runs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareRuns builds the rows in workload order, end-to-end metrics
// first, and counts the regressions.
func compareRuns(oldRuns, newRuns []record) ([]compareRow, int) {
	oldV, newV := values(oldRuns), values(newRuns)
	var rows []compareRow
	regressed := 0
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				o, n := oldV[w.name][d.name], newV[w.name][d.name]
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				row := compareRow{workload: w.name, metric: d.name, unit: d.unit,
					oldMed: median(o), newMed: median(n), oldN: len(o), newN: len(n),
					bounded: d.bound > 0, bound: d.bound}
				row.oldQ1, row.oldQ3 = quartiles(o)
				row.newQ1, row.newQ3 = quartiles(n)
				if row.oldMed != 0 {
					row.ratio = row.newMed / row.oldMed
				}
				row.verdict = verdict(d, row, spreadShare(o), spreadShare(n))
				if row.verdict == "regressed" {
					regressed++
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, regressed
}

// verdict judges one row. Per-layer metrics carry no bound and are
// reported for orientation only.
func verdict(d metricDef, r compareRow, oldSpread, newSpread float64) string {
	if d.bound <= 0 {
		return "info"
	}
	worse := (r.newMed - r.oldMed) / r.oldMed // positive = got worse, for lower-is-better
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.bound:
		return "regressed"
	case oldSpread > d.bound || newSpread > d.bound:
		return "unresolved"
	case worse < -d.bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// digestNotes reports, per workload and seed, whether the loss digest
// of the two sides agrees — the exact-arithmetic check between commits.
func digestNotes(oldRuns, newRuns []record) []string {
	type key struct {
		workload string
		seed     uint64
	}
	collect := func(runs []record) map[key]map[string]bool {
		out := map[key]map[string]bool{}
		for _, r := range runs {
			k := key{r.Workload, r.Fingerprint.Seed}
			if out[k] == nil {
				out[k] = map[string]bool{}
			}
			out[k][r.LossDigest] = true
		}
		return out
	}
	o, n := collect(oldRuns), collect(newRuns)
	var keys []key
	for k := range o {
		if n[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	var notes []string
	for _, k := range keys {
		same := len(o[k]) == 1 && len(n[k]) == 1
		for d := range o[k] {
			same = same && n[k][d]
		}
		state := "repeats exactly"
		if !same {
			state = "DIFFERS (fine only if the change says it alters arithmetic; then final_test_accuracy within its bound is the test)"
		}
		notes = append(notes, fmt.Sprintf("loss_digest %s seed %d: %s", k.workload, k.seed, state))
	}
	return notes
}
