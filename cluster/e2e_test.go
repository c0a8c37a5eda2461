package cluster_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cluster"
	"repro/data"
	"repro/health"
	"repro/lpsgd"
)

// TestThreeProcessClusterTraining is the acceptance test for the
// multi-process runtime: it builds cmd/lpsgd-worker and launches three
// separate OS processes — one coordinator (rank 0) and two workers —
// that rendezvous over loopback, negotiate a precision policy, and
// complete a training run over the dialled TCP mesh. It asserts that
// every process converges on the negotiated policy and ends with
// bit-identical model state (equal checkpoint digests).
func TestThreeProcessClusterTraining(t *testing.T) {
	// Overlapping-but-distinct advertisements: qsgd4b512 is the cheapest
	// policy all three share, so that must be the negotiated outcome.
	runThreeProcessCluster(t,
		[]string{"qsgd4b512,1bit", "qsgd4b512,qsgd8b512", "topk0.01,qsgd4b512"},
		"qsgd4b512")
}

// TestThreeProcessClusterTrainingMixedPolicy is the same acceptance
// test under a mixed per-layer policy: the fc1 weights travel as 8-bit
// QSGD, every bias at full precision, everything else as 4-bit QSGD —
// so one exchange interleaves frames naming three different codecs —
// and the ranks must still end with identical model digests.
func TestThreeProcessClusterTrainingMixedPolicy(t *testing.T) {
	const policy = "qsgd4b512;fc1=qsgd8b512;*.b=32bit"
	runThreeProcessCluster(t,
		[]string{policy, policy + ",qsgd8b512", "1bit," + policy},
		policy)
}

// buildWorker compiles cmd/lpsgd-worker into a temp dir and returns
// the binary path, skipping the test when no toolchain is available.
func buildWorker(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available to build the worker binary")
	}
	bin := filepath.Join(t.TempDir(), "lpsgd-worker")
	build := exec.Command(goTool, "build", "-o", bin, "repro/cmd/lpsgd-worker")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lpsgd-worker: %v\n%s", err, out)
	}
	return bin
}

func runThreeProcessCluster(t *testing.T, accepts []string, wantPolicy string) {
	t.Helper()
	bin := buildWorker(t)

	const world = 3
	common := []string{
		"-world", fmt.Sprint(world),
		"-task", "image", "-epochs", "2", "-batch", "24",
		"-train-samples", "96", "-test-samples", "48", "-seed", "41",
	}

	// Rank 0 coordinates on an ephemeral port and prints the bound
	// address on its first stdout line.
	rank0 := exec.Command(bin, append([]string{
		"-coordinator", "127.0.0.1:0", "-rank", "0", "-accept", accepts[0],
	}, common...)...)
	var rank0Err bytes.Buffer
	rank0.Stderr = &rank0Err
	rank0Out, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	sc := bufio.NewScanner(rank0Out)
	if !sc.Scan() {
		t.Fatalf("rank 0 exited before announcing its address: %s", rank0Err.String())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "coordinator" {
		t.Fatalf("unexpected announcement %q", sc.Text())
	}
	addr := fields[1]

	type result struct {
		rank int
		out  string
		err  error
	}
	results := make(chan result, world)
	for rank := 1; rank < world; rank++ {
		go func(rank int) {
			cmd := exec.Command(bin, append([]string{
				"-coordinator", addr, "-rank", fmt.Sprint(rank), "-accept", accepts[rank],
			}, common...)...)
			out, err := cmd.Output()
			if ee, ok := err.(*exec.ExitError); ok {
				err = fmt.Errorf("%w\n%s", err, ee.Stderr)
			}
			results <- result{rank, string(out), err}
		}(rank)
	}
	go func() {
		var rest bytes.Buffer
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		err := rank0.Wait()
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, rank0Err.String())
		}
		results <- result{0, rest.String(), err}
	}()

	models := map[int]string{}
	codecs := map[int]string{}
	deadline := time.After(120 * time.Second)
	for i := 0; i < world; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("rank %d failed: %v", r.rank, r.err)
			}
			kv := parseSummary(t, r.rank, r.out)
			models[r.rank] = kv["model"]
			codecs[r.rank] = kv["codec"]
			if kv["world"] != fmt.Sprint(world) {
				t.Errorf("rank %d reports world=%s", r.rank, kv["world"])
			}
		case <-deadline:
			t.Fatal("cluster run did not finish in time")
		}
	}
	for rank := 0; rank < world; rank++ {
		if codecs[rank] != wantPolicy {
			t.Errorf("rank %d trained with policy %q, want the negotiated %q", rank, codecs[rank], wantPolicy)
		}
		if models[rank] == "" {
			t.Fatalf("rank %d reported no model digest", rank)
		}
		if models[rank] != models[0] {
			t.Errorf("rank %d model %s differs from rank 0's %s — replicas diverged",
				rank, models[rank], models[0])
		}
	}
}

// parseSummary extracts the key=value pairs of a worker's final line.
func parseSummary(t *testing.T, rank int, out string) map[string]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "rank=") {
		t.Fatalf("rank %d produced no summary line, got %q", rank, last)
	}
	kv := map[string]string{}
	for _, field := range strings.Fields(last) {
		if k, v, ok := strings.Cut(field, "="); ok {
			kv[k] = v
		}
	}
	if got := kv["rank"]; got != fmt.Sprint(rank) {
		t.Fatalf("summary claims rank %s, want %d", got, rank)
	}
	return kv
}

// TestClusterTrainingInProcess drives the same cluster code path with
// three goroutine ranks — cheap enough for every test run and for the
// race detector — and checks that the per-rank trainers stay
// bit-identical through the lpsgd facade.
func TestClusterTrainingInProcess(t *testing.T) {
	const world = 3
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr: "127.0.0.1:0", World: world,
		Accept:  []string{"qsgd4b512"},
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		codec string
		ckpt  []byte
		acc   float64
	}
	outcomes := make([]outcome, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	runRank := func(rank int, opt lpsgd.Option) {
		defer wg.Done()
		model, train, test := trainingTask()
		trainer, err := lpsgd.NewTrainer(model,
			opt,
			lpsgd.WithAcceptedPolicies("qsgd4b512", "1bit*64"),
			lpsgd.WithBatchSize(24),
			lpsgd.WithEpochs(2),
			lpsgd.WithSeed(7),
		)
		if err != nil {
			errs[rank] = err
			return
		}
		defer trainer.Close()
		h, err := trainer.Run(train, test)
		if err != nil {
			errs[rank] = err
			return
		}
		var buf bytes.Buffer
		if err := trainer.SaveCheckpoint(&buf); err != nil {
			errs[rank] = err
			return
		}
		outcomes[rank] = outcome{
			codec: trainer.Policy().Name(),
			ckpt:  buf.Bytes(),
			acc:   h.FinalAccuracy,
		}
	}
	wg.Add(world)
	for rank := 1; rank < world; rank++ {
		go runRank(rank, lpsgd.WithCluster(coord.Addr(), rank, world))
	}
	go func() {
		sess, err := coord.Join()
		if err != nil {
			errs[0] = err
			wg.Done()
			return
		}
		runRank(0, lpsgd.WithClusterSession(sess))
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < world; rank++ {
		if outcomes[rank].codec != "qsgd4b512" {
			t.Errorf("rank %d used codec %q", rank, outcomes[rank].codec)
		}
		if !bytes.Equal(outcomes[rank].ckpt, outcomes[0].ckpt) {
			t.Errorf("rank %d checkpoint differs from rank 0 — replicas diverged", rank)
		}
		if outcomes[rank].acc != outcomes[0].acc {
			t.Errorf("rank %d accuracy %v differs from rank 0's %v", rank, outcomes[rank].acc, outcomes[0].acc)
		}
	}
}

// trainingTask builds a small deterministic image workload shared by
// every rank of the in-process cluster tests: 8×8 single-channel
// images, so the 64-input MLP fits.
func trainingTask() (lpsgd.BuildFunc, *data.Dataset, *data.Dataset) {
	train, test := lpsgd.SyntheticImages(4, 96, 48, 13)
	return lpsgd.MLP(64, 32, 4), train, test
}

// syncBuffer is a concurrency-safe sink for a child process's stderr,
// pollable while the process runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForOutput polls a buffer until want appears.
func waitForOutput(t *testing.T, b *syncBuffer, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !strings.Contains(b.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("%q never appeared; output so far:\n%s", want, b.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterPeerDeathAbort is the acceptance test of the health
// plane: three worker processes train a long run, one is SIGKILLed
// mid-epoch, and every survivor must exit with the documented
// peer-death abort code (4) within 2x the configured heartbeat
// timeout — unblocked out of the synchronous exchange by the
// coordinated abort, not wedged until some TCP-level timeout.
func TestClusterPeerDeathAbort(t *testing.T) {
	bin := buildWorker(t)

	const world = 3
	const hbTimeout = 3 * time.Second
	const abortExitCode = 4
	common := []string{
		"-world", fmt.Sprint(world),
		"-task", "image", "-epochs", "100000", "-batch", "24",
		"-train-samples", "96", "-test-samples", "48", "-seed", "41",
		"-accept", "qsgd4b512",
		"-heartbeat", "100ms", "-heartbeat-timeout", hbTimeout.String(),
	}

	// Rank 0 coordinates on an ephemeral port.
	var err0 syncBuffer
	rank0 := exec.Command(bin, append([]string{
		"-coordinator", "127.0.0.1:0", "-rank", "0",
	}, common...)...)
	rank0.Stderr = &err0
	rank0Out, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	sc := bufio.NewScanner(rank0Out)
	if !sc.Scan() {
		t.Fatalf("rank 0 exited before announcing its address: %s", err0.String())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "coordinator" {
		t.Fatalf("unexpected announcement %q", sc.Text())
	}
	addr := fields[1]
	go func() { // drain the rest of rank 0's stdout
		for sc.Scan() {
		}
	}()

	stderrs := make([]*syncBuffer, world)
	stderrs[0] = &err0
	procs := make([]*exec.Cmd, world)
	procs[0] = rank0
	for rank := 1; rank < world; rank++ {
		buf := &syncBuffer{}
		cmd := exec.Command(bin, append([]string{
			"-coordinator", addr, "-rank", fmt.Sprint(rank),
		}, common...)...)
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		stderrs[rank] = buf
		procs[rank] = cmd
		defer cmd.Process.Kill()
	}

	// Wait until every rank is demonstrably inside the training loop,
	// then give them a beat so the kill lands mid-epoch.
	for rank := 0; rank < world; rank++ {
		waitForOutput(t, stderrs[rank], "up, negotiated policy", 30*time.Second)
	}
	time.Sleep(300 * time.Millisecond)

	victim := world - 1
	killedAt := time.Now()
	if err := procs[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].Wait()

	type exited struct {
		rank    int
		code    int
		elapsed time.Duration
	}
	done := make(chan exited, world)
	for rank := 0; rank < victim; rank++ {
		go func(rank int) {
			err := procs[rank].Wait()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				code = -1
			}
			done <- exited{rank, code, time.Since(killedAt)}
		}(rank)
	}
	// The acceptance bound: every survivor is out within 2x the
	// heartbeat timeout of the kill.
	budget := 2 * hbTimeout
	timeout := time.After(budget + 2*time.Second) // scheduling slack for the slowest Wait
	for i := 0; i < victim; i++ {
		select {
		case e := <-done:
			if e.code != abortExitCode {
				t.Errorf("rank %d exited with code %d, want the abort code %d; stderr:\n%s",
					e.rank, e.code, abortExitCode, stderrs[e.rank].String())
			}
			if e.elapsed > budget {
				t.Errorf("rank %d took %v to abort, budget is %v", e.rank, e.elapsed, budget)
			}
			if !strings.Contains(stderrs[e.rank].String(), "declared dead") {
				t.Errorf("rank %d's stderr does not carry the death verdict:\n%s",
					e.rank, stderrs[e.rank].String())
			}
		case <-timeout:
			t.Fatalf("survivors still running %v after the kill — the abort never propagated", budget)
		}
	}
}

// TestClusterRejoinDigestParity is the elastic acceptance test over
// real OS processes: a three-worker cluster trains with a rejoin
// window, rank 2 is SIGKILLed mid-epoch, a replacement process is
// launched with -rejoin, re-enters the session through the rendezvous
// v4 rejoin barrier and the donor's state transfer, and every process
// — survivors and replacement — exits 0 with a final model digest
// bit-identical to an uninterrupted three-rank run of the same seed
// and policy.
func TestClusterRejoinDigestParity(t *testing.T) {
	bin := buildWorker(t)
	uninterrupted := runRejoinWorld(t, bin, false)
	interrupted := runRejoinWorld(t, bin, true)
	if interrupted != uninterrupted {
		t.Fatalf("kill-and-rejoin digest %s differs from uninterrupted %s — elastic resume is not bit-exact",
			interrupted, uninterrupted)
	}
}

// runRejoinWorld runs one three-process elastic training world,
// optionally SIGKILLing rank 2 mid-epoch and re-forking it with
// -rejoin, and returns the agreed final model digest.
func runRejoinWorld(t *testing.T, bin string, kill bool) string {
	t.Helper()
	const world = 3
	const victim = world - 1
	common := []string{
		"-world", fmt.Sprint(world),
		"-task", "image", "-epochs", "80", "-batch", "24",
		"-train-samples", "96", "-test-samples", "48", "-seed", "41",
		"-accept", "qsgd4b512",
		"-heartbeat", "100ms", "-heartbeat-timeout", "2s",
		"-rejoin-window", "60s", "-join-timeout", "60s",
	}

	var err0 syncBuffer
	rank0 := exec.Command(bin, append([]string{
		"-coordinator", "127.0.0.1:0", "-rank", "0",
	}, common...)...)
	rank0.Stderr = &err0
	rank0Out, err := rank0.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer rank0.Process.Kill()

	sc := bufio.NewScanner(rank0Out)
	if !sc.Scan() {
		t.Fatalf("rank 0 exited before announcing its address: %s", err0.String())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "coordinator" {
		t.Fatalf("unexpected announcement %q", sc.Text())
	}
	addr := fields[1]

	type result struct {
		rank int
		out  string
		err  error
	}
	results := make(chan result, world+1)
	launch := func(rank int, extra ...string) *exec.Cmd {
		cmd := exec.Command(bin, append(append([]string{
			"-coordinator", addr, "-rank", fmt.Sprint(rank),
		}, extra...), common...)...)
		stderr := &syncBuffer{}
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			buf := new(bytes.Buffer)
			io.Copy(buf, out)
			err := cmd.Wait()
			if err != nil {
				err = fmt.Errorf("%w\n%s", err, stderr.String())
			}
			results <- result{rank, buf.String(), err}
		}()
		return cmd
	}
	procs := make([]*exec.Cmd, world)
	procs[0] = rank0
	for rank := 1; rank < world; rank++ {
		procs[rank] = launch(rank)
	}
	go func() {
		var rest bytes.Buffer
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		err := rank0.Wait()
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, err0.String())
		}
		results <- result{0, rest.String(), err}
	}()

	expected := world
	if kill {
		// Give the cluster a beat so the SIGKILL lands mid-epoch, then
		// kill rank 2 and launch its replacement. The victim's own exit
		// is consumed here (killed by signal, not a result); the
		// replacement reports under the same rank.
		time.Sleep(400 * time.Millisecond)
		if err := procs[victim].Process.Kill(); err != nil {
			t.Fatal(err)
		}
		launch(victim, "-rejoin")
		expected = world + 1
	}

	models := map[int]string{}
	deadline := time.After(180 * time.Second)
	got := 0
	killedSeen := false
	for got < expected {
		select {
		case r := <-results:
			got++
			if kill && r.rank == victim && !killedSeen && r.err != nil && strings.Contains(r.err.Error(), "killed") {
				killedSeen = true
				continue // the SIGKILLed incarnation
			}
			if r.err != nil {
				t.Fatalf("rank %d failed: %v", r.rank, r.err)
			}
			kv := parseSummary(t, r.rank, r.out)
			models[r.rank] = kv["model"]
		case <-deadline:
			t.Fatal("elastic cluster run did not finish in time")
		}
	}
	for rank := 0; rank < world; rank++ {
		if models[rank] == "" {
			t.Fatalf("rank %d reported no model digest", rank)
		}
		if models[rank] != models[0] {
			t.Errorf("rank %d model %s differs from rank 0's %s — replicas diverged",
				rank, models[rank], models[0])
		}
	}
	return models[0]
}

// TestHealthPlaneDigestParity: enabling the health plane must not move
// a single training bit — the final model digests of a cluster run
// with heartbeats on and one with the plane disabled are identical.
func TestHealthPlaneDigestParity(t *testing.T) {
	run := func(hb health.Config) []byte {
		const world = 2
		coord, err := cluster.NewCoordinator(cluster.Config{
			Addr: "127.0.0.1:0", World: world,
			Accept:  []string{"qsgd4b512"},
			Timeout: 20 * time.Second,
			Health:  hb,
		})
		if err != nil {
			t.Fatal(err)
		}
		ckpts := make([][]byte, world)
		errs := make([]error, world)
		var wg sync.WaitGroup
		runRank := func(rank int, opt lpsgd.Option) {
			defer wg.Done()
			model, train, test := trainingTask()
			trainer, err := lpsgd.NewTrainer(model,
				opt,
				lpsgd.WithAcceptedPolicies("qsgd4b512"),
				lpsgd.WithBatchSize(24),
				lpsgd.WithEpochs(2),
				lpsgd.WithSeed(7),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			defer trainer.Close()
			if _, err := trainer.Run(train, test); err != nil {
				errs[rank] = err
				return
			}
			var buf bytes.Buffer
			if err := trainer.SaveCheckpoint(&buf); err != nil {
				errs[rank] = err
				return
			}
			ckpts[rank] = buf.Bytes()
		}
		wg.Add(world)
		go runRank(1, lpsgd.WithCluster(coord.Addr(), 1, world))
		go func() {
			sess, err := coord.Join()
			if err != nil {
				errs[0] = err
				wg.Done()
				return
			}
			runRank(0, lpsgd.WithClusterSession(sess))
		}()
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d (health disable=%v): %v", rank, hb.Disable, err)
			}
		}
		if !bytes.Equal(ckpts[0], ckpts[1]) {
			t.Fatalf("ranks diverged within one run (health disable=%v)", hb.Disable)
		}
		return ckpts[0]
	}

	withHealth := run(health.Config{Interval: 50 * time.Millisecond})
	without := run(health.Config{Disable: true})
	if !bytes.Equal(withHealth, without) {
		t.Fatal("health plane perturbed the training trajectory: digests differ between on and off")
	}
}
