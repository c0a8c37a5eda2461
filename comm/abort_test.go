package comm

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/quant"
)

// meshConns wires a fully connected duplex mesh over loopback TCP:
// conns[r][p] is rank r's end of the link to rank p. The raw slices are
// returned so tests can sever a rank's sockets out from under its
// fabric — the closest in-process stand-in for a SIGKILLed peer.
func meshConns(t *testing.T, k int) [][]net.Conn {
	t.Helper()
	conns := make([][]net.Conn, k)
	for r := range conns {
		conns[r] = make([]net.Conn, k)
	}
	for lo := 0; lo < k; lo++ {
		for hi := lo + 1; hi < k; hi++ {
			a, b := pairConns(t)
			conns[lo][hi] = a
			conns[hi][lo] = b
		}
	}
	return conns
}

// waitGoroutines asserts the goroutine count returns to the baseline
// within a bound — no reader, writer or reducer goroutine leaked.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAbortUnblocksWithTypedError: Abort delivers its verdict to a
// Recv blocked mid-call and to every later Send/Recv — the contract the
// cluster health plane builds its coordinated abort on.
func TestAbortUnblocksWithTypedError(t *testing.T) {
	errDead := errors.New("test: rank 1 declared dead")
	f0, f1 := twoRankFabrics(t)
	defer f1.Close()

	got := make(chan error, 1)
	go func() {
		got <- f0.RecvInto(1, 0, nil, make([]byte, 1))
	}()
	time.Sleep(20 * time.Millisecond) // let Recv block on the socket
	f0.Abort(errDead)

	select {
	case err := <-got:
		if !errors.Is(err, errDead) {
			t.Fatalf("blocked recv returned %v, want the abort verdict", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock the pending Recv")
	}
	if err := f0.Send(0, 1, nil, []byte{1}); !errors.Is(err, errDead) {
		t.Fatalf("send after abort: %v, want the verdict", err)
	}
	if err := f0.RecvInto(1, 0, nil, make([]byte, 1)); !errors.Is(err, errDead) {
		t.Fatalf("recv after abort: %v, want the verdict", err)
	}
	if err := f0.Close(); err != nil {
		t.Fatalf("Close after Abort must be a no-op, got %v", err)
	}
}

// TestCloseAfterAbortKeepsVerdict and the converse: whichever lifecycle
// transition wins, later calls see a single consistent error.
func TestAbortAfterCloseIsErrClosed(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f1.Close()
	f0.Close()
	f0.Abort(errors.New("late verdict"))
	if err := f0.Send(0, 1, nil, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close-then-abort: %v, want ErrClosed", err)
	}
}

// TestCloseInterruptsReaderBeforeDrain: the half-open hang window — a
// peer that stopped reading wedges the drain, and before the fix a
// Recv blocked on that peer's silent socket waited out the whole drain
// bound too. Close must cut blocked readers immediately and
// deterministically with ErrClosed.
func TestCloseInterruptsReaderBeforeDrain(t *testing.T) {
	oldDrain := drainTimeout
	drainTimeout = 3 * time.Second
	defer func() { drainTimeout = oldDrain }()

	f0, f1 := twoRankFabrics(t)
	defer f1.Close() // f1 never reads nor writes: the half-open peer

	// Wedge the writer side: flood until the socket buffer, the link
	// queue and Send itself are all blocked.
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		payload := make([]byte, 1<<20)
		for f0.Send(0, 1, nil, payload) == nil {
		}
	}()
	// And block a reader on the link no byte will ever arrive on.
	recvErr := make(chan error, 1)
	go func() {
		recvErr <- f0.RecvInto(1, 0, nil, make([]byte, 1))
	}()
	time.Sleep(100 * time.Millisecond) // let both sides wedge

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- f0.Close() }()

	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked recv got %v, want ErrClosed", err)
		}
		// The reader must not have waited for the wedged writer drain.
		if waited := time.Since(start); waited > drainTimeout/2 {
			t.Fatalf("blocked recv waited %v — it sat out the drain window", waited)
		}
	case <-time.After(2 * drainTimeout):
		t.Fatal("blocked recv never unblocked on Close")
	}
	select {
	case <-closed:
	case <-time.After(2 * drainTimeout):
		t.Fatal("Close did not return within the drain bound")
	}
	<-floodDone
}

// TestMidExchangePeerDeathQuantisedAllReduce is the mid-exchange death
// satellite: three single-rank fabrics run a framed quantised
// reduce-and-broadcast; rank 2 completes one exchange and then dies.
// The survivors block inside the second exchange until the failure
// detector's verdict (delivered here by hand via Abort) unblocks both
// with the same typed error — no panic, no goroutine leak — and a
// severed-socket variant surfaces as a transport error rather than a
// crash.
func TestMidExchangePeerDeathQuantisedAllReduce(t *testing.T) {
	before := runtime.NumGoroutine()
	errDead := errors.New("test: rank 2 declared dead")

	const k = 3
	conns := meshConns(t, k)
	fabs := make([]*RemoteFabric, k)
	for r := 0; r < k; r++ {
		f, err := NewRemoteFabric(r, k, conns[r])
		if err != nil {
			t.Fatal(err)
		}
		fabs[r] = f
	}

	codec, err := quant.Parse("qsgd4b512")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8192
	shape := quant.Shape{Rows: 64, Cols: 128}
	specs := []TensorSpec{{Name: "w", N: n, Wire: shape, Codec: codec}}
	rbs := make([]*Collective, k)
	for r := 0; r < k; r++ {
		rbs[r] = NewCollective(fabs[r], MPI, specs, 99, []int{r})
	}

	grads := make([][]float32, k)
	for r := range grads {
		grads[r] = make([]float32, n)
		for i := range grads[r] {
			grads[r][i] = float32(r+1) * 0.001
		}
	}

	// Exchange 1: everyone participates; must succeed.
	var wg sync.WaitGroup
	firstErrs := make([]error, k)
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			firstErrs[r] = rbs[r].Reduce(r, 0, grads[r])
		}(r)
	}
	wg.Wait()
	for r, err := range firstErrs {
		if err != nil {
			t.Fatalf("healthy exchange failed on rank %d: %v", r, err)
		}
	}

	// Exchange 2: rank 2 never shows up. The survivors block inside the
	// exchange...
	type outcome struct {
		rank int
		err  error
	}
	results := make(chan outcome, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			results <- outcome{r, rbs[r].Reduce(r, 0, grads[r])}
		}(r)
	}
	time.Sleep(100 * time.Millisecond) // let both survivors block

	// ...until the death verdict aborts their fabrics (in the cluster
	// this is the health monitor's OnVerdict hook).
	fabs[0].Abort(errDead)
	fabs[1].Abort(errDead)

	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case out := <-results:
			if !errors.Is(out.err, errDead) {
				t.Fatalf("rank %d returned %v, want the typed death verdict", out.rank, out.err)
			}
		case <-deadline:
			t.Fatal("survivors did not unblock within the detection deadline")
		}
	}

	// Severed-socket variant: cut rank 0's remaining live link ends the
	// way a dying OS would and observe a clean transport error on a
	// fresh fabric pair — never a panic.
	a, b := pairConns(t)
	g0, err := NewRemoteFabric(0, 2, []net.Conn{nil, a})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewRemoteFabric(1, 2, []net.Conn{b, nil})
	if err != nil {
		t.Fatal(err)
	}
	b.Close() // rank 1's process dies
	if err := g0.RecvInto(1, 0, nil, make([]byte, 1)); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("severed peer must surface a transport error, got %v", err)
	}
	g0.Close()
	g1.Close()

	fabs[2].Close()
	waitGoroutines(t, before)
}

// watchedConn is a socket end whose writes can be checked for
// touching borrowed memory after the fabric's teardown returned: it is
// not net's own conn, so the writer copies every message and hands it
// to Write, which records whether it was running, or started, once
// over is set.
type watchedConn struct {
	net.Conn
	writing atomic.Int32
	over    atomic.Bool // set by the test once Close or Abort returned
	late    atomic.Bool // a write ran after over was set
}

func (c *watchedConn) Write(p []byte) (int, error) {
	c.writing.Add(1)
	defer c.writing.Add(-1)
	if c.over.Load() {
		c.late.Store(true)
	}
	return c.Conn.Write(p)
}

// TestTeardownWithSendsInFlight: Abort and Close while borrowed
// messages sit in a wedged link's queue (and one inside the writer's
// write) deliver the verdict / ErrClosed to the blocked sender and to
// a blocked Flush, take every message off the link exactly once, let
// no writer touch a payload after the teardown returned, and leak no
// goroutine.
func TestTeardownWithSendsInFlight(t *testing.T) {
	oldDrain := drainTimeout
	drainTimeout = 200 * time.Millisecond
	defer func() { drainTimeout = oldDrain }()
	errDead := errors.New("test: rank 1 declared dead")

	for _, tc := range []struct {
		name     string
		teardown func(*RemoteFabric)
		want     error
	}{
		{"abort", func(f *RemoteFabric) { f.Abort(errDead) }, errDead},
		{"close", func(f *RemoteFabric) { f.Close() }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			a, b := pairConns(t)
			conn := &watchedConn{Conn: a}
			f0, err := NewRemoteFabric(0, 2, []net.Conn{nil, conn})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close() // rank 1 never reads: the link wedges
			// A flooding sender, and once the link is full a flusher of
			// what it has sent.
			flood, flushed := make(chan error, 1), make(chan error, 1)
			go func() {
				var err error
				for i := 0; err == nil; i++ {
					err = f0.Send(0, 1, nil, make([]byte, 64<<10+i%3*(256<<10)))
				}
				flood <- err
			}()
			time.Sleep(100 * time.Millisecond) // socket buffer, queue and Send all full
			go func() { flushed <- f0.Flush(0) }()
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-flushed:
				t.Fatalf("Flush returned %v while the link was wedged", err)
			default:
			}
			tc.teardown(f0)
			conn.over.Store(true)
			if n := conn.writing.Load(); n != 0 {
				t.Fatalf("%d writes still running after the teardown returned", n)
			}
			for what, ch := range map[string]chan error{"blocked sender": flood, "blocked Flush": flushed} {
				select {
				case err := <-ch:
					if !errors.Is(err, tc.want) {
						t.Fatalf("%s got %v, want %v", what, err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("teardown did not release the %s", what)
				}
			}
			if out := &f0.out; out.taken.Load() != out.sent.Load() {
				t.Fatalf("%d messages sent, %d taken off the link", out.sent.Load(), out.taken.Load())
			}
			if err := f0.Flush(0); !errors.Is(err, tc.want) {
				t.Fatalf("Flush after the teardown: %v, want %v", err, tc.want)
			}
			time.Sleep(20 * time.Millisecond)
			if conn.late.Load() {
				t.Fatal("a writer wrote a borrowed payload after the teardown returned")
			}
			waitGoroutines(t, before)
		})
	}
}
