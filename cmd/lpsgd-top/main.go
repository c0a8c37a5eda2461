// Command lpsgd-top is a live terminal dashboard for a training
// cluster's telemetry plane. It polls the /cluster/status endpoint a
// rank serves under -metrics-addr (any rank works — every rank holds
// the whole cluster's view, since telemetry snapshots are broadcast
// over the heartbeat control links) and renders the cluster's
// convergence at a glance: a per-rank table of step, loss, compute
// and exchange time with the current straggler flagged, a sparkline
// of the cluster-mean loss trend, and a per-tensor table of gradient
// norms, live quantisation RMSE and achieved compression under the
// negotiated precision policy.
//
//	lpsgd-train -task image -policy qsgd4 -cluster 3 \
//	    -telemetry-every 10 -metrics-addr 127.0.0.1:9090 &
//	lpsgd-top -addr 127.0.0.1:9090
//
// The screen refreshes in place every -interval. -once prints a
// single frame without clearing the terminal and exits — useful for
// scripts and CI smoke tests; its exit code is 0 only if the endpoint
// answered with a decodable status document.
//
// A rank that has not reported within a few sampling periods shows a
// growing "stale" age rather than disappearing, so a hung or dead
// rank is visible as exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "host:port of a rank's observability plane (its -metrics-addr)")
		interval = flag.Duration("interval", time.Second, "poll and refresh period")
		once     = flag.Bool("once", false, "print one frame without clearing the screen and exit")
	)
	flag.Parse()
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "lpsgd-top: -interval must be positive")
		os.Exit(2)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + *addr + "/cluster/status"
	for {
		st, err := fetch(client, url)
		if err != nil {
			if *once {
				fmt.Fprintln(os.Stderr, "lpsgd-top:", err)
				os.Exit(1)
			}
			// Transient during startup or between runs: keep polling.
			fmt.Printf("\x1b[H\x1b[2Jlpsgd-top: %v (retrying every %v)\n", err, *interval)
		} else {
			var b strings.Builder
			if !*once {
				b.WriteString("\x1b[H\x1b[2J")
			}
			render(&b, st, *addr)
			os.Stdout.WriteString(b.String())
			if *once {
				return
			}
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (cluster.ClusterStatus, error) {
	var st cluster.ClusterStatus
	resp, err := client.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("%s: decode: %w", url, err)
	}
	return st, nil
}

// render draws one full frame of the dashboard into b.
func render(b *strings.Builder, st cluster.ClusterStatus, addr string) {
	policy := st.Policy
	if policy == "" {
		policy = "?"
	}
	fmt.Fprintf(b, "lpsgd-top — %s   policy=%s   ranks %d/%d reporting\n",
		addr, policy, st.Reporting, st.WorldSize)
	if st.Reporting == 0 {
		b.WriteString("\nwaiting for the first telemetry snapshot...\n")
		return
	}
	fmt.Fprintf(b, "step %d..%d   loss min/mean/max %s / %s / %s\n",
		st.MinStep, st.MaxStep,
		num(float64(st.MinLoss)), num(float64(st.MeanLoss)), num(float64(st.MaxLoss)))

	if len(st.LossTrend) > 0 {
		vals := make([]float64, 0, len(st.LossTrend))
		for _, v := range st.LossTrend {
			vals = append(vals, float64(v))
		}
		fmt.Fprintf(b, "loss %s %s\n", sparkline(vals, 60), num(vals[len(vals)-1]))
	}

	b.WriteString("\n RANK    STEP        LOSS    COMPUTE   EXCHANGE      STALE\n")
	for _, r := range st.Ranks {
		mark := " "
		if r.Rank == st.Straggler {
			mark = "*"
		}
		fmt.Fprintf(b, "%s%4d %7d %11s %10s %10s %10s\n",
			mark, r.Rank, r.Step, num(float64(r.Loss)),
			durNS(r.ComputeNS), durNS(r.ExchangeNS), durMS(r.StalenessMS))
	}
	if st.Straggler >= 0 {
		fmt.Fprintf(b, " (* rank %d gated the sampled step)\n", st.Straggler)
	}

	type agg struct {
		l2, inf, rmse, comp float64
		n                   int
	}
	tensors := map[string]*agg{}
	for _, r := range st.Ranks {
		for _, tn := range r.Tensors {
			a := tensors[tn.Name]
			if a == nil {
				a = &agg{}
				tensors[tn.Name] = a
			}
			a.l2 += float64(tn.GradL2)
			a.inf += float64(tn.GradInf)
			a.rmse += float64(tn.RMSE)
			a.comp += float64(tn.Compression)
			a.n++
		}
	}
	if len(tensors) > 0 {
		names := make([]string, 0, len(tensors))
		for name := range tensors {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("\n TENSOR                 GRAD_L2    GRAD_INF  QUANT_RMSE  COMPRESS\n")
		for _, name := range names {
			a := tensors[name]
			n := float64(a.n)
			fmt.Fprintf(b, " %-20s %10s %11s %11s %8sx\n",
				name, num(a.l2/n), num(a.inf/n), num(a.rmse/n), num(a.comp/n))
		}
		b.WriteString(" (mean over reporting ranks; compression is raw/wire bytes under the policy)\n")
	}
}

// num formats a telemetry float compactly; NaN (a null in the JSON)
// renders as "-".
func num(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch a := math.Abs(v); {
	case a != 0 && a < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case a >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func durNS(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func durMS(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).Round(100 * time.Millisecond).String()
}

// sparkline renders vals as a fixed-width run of block glyphs, tail
// (newest) aligned right.
func sparkline(vals []float64, width int) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo > hi { // all NaN
		return strings.Repeat("·", len(vals))
	}
	var sb strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) {
			sb.WriteRune('·')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		sb.WriteRune(glyphs[idx])
	}
	return sb.String()
}
