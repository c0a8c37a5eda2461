package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/cmd/internal/worker"
)

// TestForkArgs: a forked rank is lpsgd-worker's path with this
// process's training flags, minus the per-process ones (and -load on a
// rejoin).
func TestForkArgs(t *testing.T) {
	fs := flag.NewFlagSet("lpsgd-train", flag.ContinueOnError)
	f, _, _ := declare(fs)
	if err := fs.Parse([]string{
		"-task", "sequence", "-policy", "qsgd4b512;*.b=32bit", "-epochs", "3", "-batch", "24",
		"-lr", "0.125", "-seed", "99", "-nccl", "-train-samples", "96", "-test-samples", "48",
		"-save", "out.ckpt", "-load", "in.ckpt", "-heartbeat", "50ms", "-heartbeat-timeout", "1s",
		"-step-deadline", "5s", "-rejoin-window", "30s", "-max-rejoins", "-1",
		"-metrics-addr", "127.0.0.1:9090", "-trace-out", "trace.jsonl", "-telemetry-every", "2",
		"-workers", "8", "-cluster", "3",
	}); err != nil {
		t.Fatal(err)
	}
	for _, rejoin := range []bool{false, true} {
		args := forkArgs(*f, "127.0.0.1:7070", 2, 3, rejoin)
		if args[0] != "worker" {
			t.Fatalf("fork args %q do not enter the worker path", args)
		}
		var got worker.Config
		wfs := flag.NewFlagSet("lpsgd-train worker", flag.ContinueOnError)
		got.Register(wfs)
		if err := wfs.Parse(args[1:]); err != nil {
			t.Fatalf("rank cannot parse its fork args %q: %v", args, err)
		}
		want := worker.Config{Flags: *f, Membership: got.Membership}
		want.Coordinator, want.Rank, want.World, want.Rejoin = "127.0.0.1:7070", 2, 3, rejoin
		want.MetricsAddr, want.TraceOut, want.Save = "", "", ""
		if rejoin {
			want.Load = ""
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rejoin=%v: fork args %q\nparse to %+v\nwant      %+v", rejoin, args, got, want)
		}
	}
}

// TestREADMEFlagTables: the README's flag tables are the flag sets the
// binaries declare. On drift, paste the printed blocks into README.md.
func TestREADMEFlagTables(t *testing.T) {
	var shared worker.Flags
	sharedFS := flag.NewFlagSet("", flag.ContinueOnError)
	shared.Register(sharedFS)
	notShared := func(name string) bool { return sharedFS.Lookup(name) == nil }

	trainFS := flag.NewFlagSet("lpsgd-train", flag.ContinueOnError)
	declare(trainFS)
	var rank worker.Config
	workerFS := flag.NewFlagSet("lpsgd-worker", flag.ContinueOnError)
	rank.Register(workerFS)

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fs   *flag.FlagSet
		keep func(string) bool
	}{
		{"training", sharedFS, func(string) bool { return true }},
		{"lpsgd-train", trainFS, notShared},
		{"lpsgd-worker", workerFS, notShared},
	} {
		begin := "<!-- flags: " + tc.name + " -->\n"
		_, rest, ok := strings.Cut(string(readme), begin)
		if !ok {
			t.Errorf("README.md has no %q marker", strings.TrimSpace(begin))
			continue
		}
		got, _, ok := strings.Cut(rest, "<!-- end flags -->")
		if !ok {
			t.Errorf("README.md's %s table has no end marker", tc.name)
			continue
		}
		if want := flagTable(tc.fs, tc.keep); got != want {
			t.Errorf("README.md's %s flag table is stale; want:\n%s%s<!-- end flags -->", tc.name, begin, want)
		}
	}
}

// flagTable renders the flags of fs that keep accepts as a markdown
// table, in flag-name order.
func flagTable(fs *flag.FlagSet, keep func(string) bool) string {
	escape := strings.NewReplacer("|", `\|`, "*", `\*`)
	var b strings.Builder
	b.WriteString("| flag | default | meaning |\n| --- | --- | --- |\n")
	fs.VisitAll(func(fl *flag.Flag) {
		if !keep(fl.Name) {
			return
		}
		def := "—"
		if fl.DefValue != "" {
			def = "`" + fl.DefValue + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", fl.Name, def, escape.Replace(fl.Usage))
	})
	return b.String()
}
