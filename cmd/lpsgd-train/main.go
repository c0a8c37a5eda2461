// Command lpsgd-train runs real quantised data-parallel training on one
// of the synthetic tasks and reports accuracy per epoch — the
// reproduction's equivalent of launching a CNTK training job with a
// chosen gradient precision:
//
//	lpsgd-train -task image -policy qsgd4 -workers 8 -epochs 20
//	lpsgd-train -task sequence -policy 1bit -workers 2 -nccl
//	lpsgd-train -task image -policy "qsgd4b512;*.b=32bit" -workers 4
//
// -policy takes the precision-policy grammar (quant.ParsePolicy; a bare
// codec name is a policy, empty means 32bit). The training flags are
// declared once, in cmd/internal/worker, and cmd/lpsgd-worker takes the
// same ones; the README's flag tables are rendered from them.
//
// With -cluster N the run becomes a single-machine multi-process smoke
// test of the cluster runtime (for real multi-machine runs, launch
// cmd/lpsgd-worker on each host instead):
//
//	lpsgd-train -task image -policy qsgd4 -cluster 3 -epochs 6
//
// This process is rank 0 and coordinator, and it forks N−1 ranks that
// run lpsgd-worker's code path as
//
//	lpsgd-train worker -coordinator <addr> -rank r -world N [-rejoin] <training flags>
//
// with every training flag of this process except the per-process
// -metrics-addr, -trace-out and -save (and -load on a rejoin). Rank 0
// runs the same path: it prints "coordinator <addr>" first and, after
// its epoch table, the summary line every forked rank prints; equal
// model= digests mean the replicas stayed bit-identical. With
// -rejoin-window the cluster is elastic: a killed rank is re-forked
// with -rejoin and the run completes as if nothing happened. Rank 0
// exits by cmd/lpsgd-worker's exit-code contract; a single-process run
// exits 0, 1 (internal failure) or 2 (usage or configuration error).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"

	"repro/cmd/internal/worker"
	"repro/elastic"
	"repro/internal/report"
	"repro/lpsgd"
)

func main() {
	// A rank forked by -cluster (see forkArgs).
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(worker.Main("lpsgd-train worker", os.Args[2:]))
	}
	f, workers, clusterN := declare(flag.CommandLine)
	flag.Parse()
	if *clusterN > 0 {
		os.Exit(runCluster(*f, *clusterN))
	}
	os.Exit(worker.Local(*f, *workers, func(tr *lpsgd.Trainer, h *lpsgd.History) error {
		printTable(*f, tr, h, 0)
		return nil
	}, os.Stderr))
}

// declare registers lpsgd-train's command line on fs: the training
// flags every rank shares and the two that are lpsgd-train's own.
func declare(fs *flag.FlagSet) (f *worker.Flags, workers, clusterN *int) {
	f = new(worker.Flags)
	f.Register(fs)
	workers = fs.Int("workers", 4, "simulated GPU count (single-process mode)")
	clusterN = fs.Int("cluster", 0, "train as a cluster of this many processes on this machine: this process is rank 0 and forks the others (0 = one process)")
	return f, workers, clusterN
}

// runCluster is -cluster n: this process is rank 0 of the session and
// supervises the n-1 ranks it forks.
func runCluster(f worker.Flags, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var super *reforker
	return worker.Run(worker.Config{
		Flags:      f,
		Membership: worker.Membership{Coordinator: "127.0.0.1:0", World: n},
	}, worker.Hooks{
		Listening: func(addr string) error {
			args := func(rank int, rejoin bool) []string { return forkArgs(f, addr, rank, n, rejoin) }
			super = newReforker(exe, args, f.RejoinWindow > 0, f.MaxRejoins)
			for r := 1; r < n; r++ {
				if err := super.start(r, false); err != nil {
					return fmt.Errorf("fork rank %d: %w", r, err)
				}
			}
			return nil
		},
		Trained: func(tr *lpsgd.Trainer, h *lpsgd.History) error {
			printTable(f, tr, h, n)
			return super.wait()
		},
	}, os.Stdout, os.Stderr)
}

// forkArgs is the command line of forked rank r. The observability
// plane and -save are per process, and a replacement receives its state
// from the session snapshot instead of -load.
func forkArgs(f worker.Flags, addr string, rank, world int, rejoin bool) []string {
	args := []string{"worker", "-coordinator", addr, "-rank", strconv.Itoa(rank), "-world", strconv.Itoa(world)}
	omit := []string{"metrics-addr", "trace-out", "save"}
	if rejoin {
		args = append(args, "-rejoin")
		omit = append(omit, "load")
	}
	return append(args, f.Args(omit...)...)
}

// printTable renders the epoch table of a run; clusterN is 0 for a
// single-process one.
func printTable(f worker.Flags, tr *lpsgd.Trainer, h *lpsgd.History, clusterN int) {
	prim := "MPI"
	if f.NCCL {
		prim = "NCCL"
	}
	wireCol := "wire_MB"
	wireNote := ""
	if clusterN > 0 {
		prim += fmt.Sprintf(", cluster of %d processes", clusterN)
		// A cluster rank's byte counter sees its own sends only — the
		// other ranks' traffic lives in their processes — so the volume
		// is not comparable to the whole-fabric number of a
		// single-process run.
		wireCol = "rank0_wire_MB"
		wireNote = " sent by rank 0"
	}
	t := report.New(
		fmt.Sprintf("%s task, policy=%s, %d workers, %s", f.Task, tr.Policy().Name(), tr.World(), prim),
		"epoch", "train_loss", "test_acc_%", "lr", wireCol, "elapsed")
	for _, e := range h.Epochs {
		acc := "-"
		if e.TestAccuracy >= 0 {
			acc = fmt.Sprintf("%.1f", 100*e.TestAccuracy)
		}
		t.Addf("%d\t%.4f\t%s\t%.4f\t%.1f\t%s",
			e.Epoch, e.TrainLoss, acc, e.LR, float64(e.WireBytes)/1e6, e.Elapsed.Round(1e6))
	}
	t.Note("final accuracy %.2f%%, best %.2f%%, total wire %.1f MB%s",
		100*h.FinalAccuracy, 100*h.BestAccuracy, float64(h.TotalWireBytes)/1e6, wireNote)
	t.Render(os.Stdout)
}

// reforker supervises the forked worker ranks of a -cluster run: it
// waits on each child and — when the session is elastic — re-forks a
// rank that died abnormally with -rejoin, up to the configured
// budget, so a killed rank rejoins the session instead of sinking the
// whole run.
type reforker struct {
	exe     string
	args    func(rank int, rejoin bool) []string
	elastic bool

	mu      sync.Mutex
	wg      sync.WaitGroup
	budget  int
	failure error
}

func newReforker(exe string, args func(int, bool) []string, elasticOn bool, maxRejoins int) *reforker {
	budget := maxRejoins
	if budget == 0 {
		budget = elastic.DefaultMaxRejoins
	}
	return &reforker{exe: exe, args: args, elastic: elasticOn, budget: budget}
}

// start forks one rank and watches it from a goroutine.
func (s *reforker) start(rank int, rejoin bool) error {
	child := exec.Command(s.exe, s.args(rank, rejoin)...)
	child.Stdout = os.Stdout
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := child.Wait()
		if err == nil {
			return
		}
		// Only a rank that was killed by a signal is a candidate for
		// repair — that is the "process died, session still running"
		// signature. A child that exits with a code of its own (bad
		// flags, rendezvous rejection, training failure, a lost
		// session) has a real error to report, and re-forking it into
		// a rejoin barrier that does not exist would only bury it.
		var ee *exec.ExitError
		killed := errors.As(err, &ee) && ee.ExitCode() == -1
		s.mu.Lock()
		// A negative budget means unlimited repairs.
		refork := s.elastic && killed && s.budget != 0
		if refork && s.budget > 0 {
			s.budget--
		} else if !refork && s.failure == nil {
			s.failure = fmt.Errorf("cluster worker rank %d exited badly: %v", rank, err)
		}
		s.mu.Unlock()
		if refork {
			fmt.Fprintf(os.Stderr, "lpsgd-train: rank %d died (%v); re-forking it into the session\n", rank, err)
			if rerr := s.start(rank, true); rerr != nil {
				s.mu.Lock()
				if s.failure == nil {
					s.failure = fmt.Errorf("re-fork rank %d: %w", rank, rerr)
				}
				s.mu.Unlock()
			}
		}
	}()
	return nil
}

// wait blocks until every child (re-forks included) has exited and
// returns the first unrepaired failure.
func (s *reforker) wait() error {
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}
