package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/elastic"
	"repro/health"
	"repro/internal/wire"
	"repro/quant"
)

// TestNegotiateMatrix covers the advertised-set matrix the issue asks
// for: disjoint, subset, empty, and the 32bit floor.
func TestNegotiateMatrix(t *testing.T) {
	cases := []struct {
		name    string
		accepts [][]string
		want    string
	}{
		{"no peers", nil, "32bit"},
		{"all empty", [][]string{{}, {}}, "32bit"},
		{"one empty", [][]string{{"qsgd4b512"}, {}}, "32bit"},
		{"disjoint", [][]string{{"qsgd4b512"}, {"1bit"}}, "32bit"},
		{"identical", [][]string{{"qsgd4b512"}, {"qsgd4b512"}}, "qsgd4b512"},
		{"subset", [][]string{{"qsgd4b512", "qsgd8b512", "1bit"}, {"qsgd8b512"}}, "qsgd8b512"},
		{"cheapest wins", [][]string{
			{"qsgd8b512", "qsgd2b128", "qsgd16"},
			{"qsgd2b128", "qsgd8b512"},
			{"qsgd16", "qsgd8b512", "qsgd2b128"},
		}, "qsgd2b128"},
		{"floor beats nothing shared", [][]string{{"topk0.01"}, {"qsgd2b128"}}, "32bit"},
		{"explicit 32bit only", [][]string{{"32bit"}, {"32bit"}}, "32bit"},
		// "qsgd4" and "qsgd4b512" are the same codec under the paper's
		// default bucket; canonicalisation must let them intersect.
		{"canonical aliases", [][]string{{"qsgd4"}, {"qsgd4b512"}}, "qsgd4b512"},
		{"fp32 alias", [][]string{{"fp32"}, {"32bit"}}, "32bit"},
		// The floor is chosen even when something pricier is shared: a
		// codec is only worth negotiating if it beats full precision.
		{"sparse cheaper than dense", [][]string{
			{"topk0.001", "qsgd8b512"}, {"topk0.001", "qsgd8b512"}}, "topk0.001"},

		// --- policy sets (overlapping but non-identical schemes) ---

		// A mixed policy and its bare base are different schemes: a peer
		// that never agreed to decode the embedding layer's topk frames
		// must not receive them, so the intersection is empty and the
		// session floors.
		{"policy and bare base do not intersect", [][]string{
			{"qsgd4b512;embedding=topk0.01"}, {"qsgd4b512"}}, "32bit"},
		// Identical mixed policies negotiate like identical codecs.
		{"identical mixed policies", [][]string{
			{"qsgd4b512;embedding=topk0.01"},
			{"qsgd4b512;embedding=topk0.01"}}, "qsgd4b512;embedding=topk0.01"},
		// Overlapping-but-non-identical sets settle on the shared member.
		{"overlapping policy sets", [][]string{
			{"qsgd4b512;*.b=32bit", "qsgd8b512"},
			{"topk0.01", "qsgd8b512"}}, "qsgd8b512"},
		// Policies intersect by canonical spelling: a spelled-out default
		// minfrac, a default bucket and codec aliases inside rules all
		// collapse to the same canonical policy.
		{"canonical policy aliases", [][]string{
			{"qsgd4;minfrac=0.99"}, {"qsgd4b512"}}, "qsgd4b512"},
		{"rule codec aliases", [][]string{
			{"qsgd4b512;emb=fp32"}, {"qsgd4;emb=32bit"}}, "qsgd4b512;emb=32bit"},
		// A rule that sends the (reference) embedding tensor sparse makes
		// the whole policy cheaper than its bare base, so it wins when
		// both are shared.
		{"mixed policy cheaper than base", [][]string{
			{"qsgd4b512;embedding=topk0.001", "qsgd4b512"},
			{"qsgd4b512", "qsgd4b512;embedding=topk0.001"}}, "qsgd4b512;embedding=topk0.001"},
	}
	for _, tc := range cases {
		got, err := Negotiate(tc.accepts...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: negotiated %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestNegotiateRejectsUnknownCodec(t *testing.T) {
	if _, err := Negotiate([]string{"qsgd4b512"}, []string{"qsgd3"}); err == nil {
		t.Fatal("unparseable advertisement must be an error")
	}
	if _, err := Negotiate([]string{"florp"}); err == nil {
		t.Fatal("unknown codec family must be an error")
	}
	if _, err := Negotiate([]string{"qsgd4b512;;"}); err == nil {
		t.Fatal("malformed policy string must be an error")
	}
	if _, err := Negotiate([]string{"qsgd4b512;emb=florp"}); err == nil {
		t.Fatal("policy with an unknown rule codec must be an error")
	}
}

// TestNegotiatedPolicyAlwaysParses: whatever Negotiate returns must be
// constructible — the session builds its plan from this string.
func TestNegotiatedPolicyAlwaysParses(t *testing.T) {
	for _, sets := range [][][]string{
		{
			{"qsgd4b512", "1bit*64", "topk0.01"},
			{"1bit*64", "qsgd4b512"},
		},
		{
			{"qsgd4b512;embedding=topk0.001;*.b=32bit"},
			{"qsgd4b512;embedding=topk0.001;*.b=32bit", "qsgd8b512"},
		},
	} {
		name, err := Negotiate(sets...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := quant.ParsePolicy(name)
		if err != nil {
			t.Fatalf("negotiated %q does not parse: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("negotiated %q is not canonical (re-names as %q)", name, p.Name())
		}
	}
}

// TestWelcomeRejectsOverlongPolicy: canonicalisation can lengthen a
// policy past the hello's raw 255-byte cap; the welcome writer must
// fail loudly instead of wrapping the length byte and corrupting the
// handshake stream.
func TestWelcomeRejectsOverlongPolicy(t *testing.T) {
	long := strings.Repeat("x", 256)
	var sink bytes.Buffer
	if err := writeWelcome(&sink, welcome{Policy: long}); err == nil {
		t.Fatal("a >255-byte policy string must not be writable as a welcome")
	}
}

// joinAll runs a whole world of ranks as goroutines over loopback and
// returns their sessions.
func joinAll(t *testing.T, world int, accepts [][]string) []*Session {
	t.Helper()
	coord, err := NewCoordinator(Config{
		Addr:    "127.0.0.1:0",
		World:   world,
		Accept:  accepts[0],
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 1; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sessions[rank], errs[rank] = Join(Config{
				Addr:    coord.Addr(),
				Rank:    rank,
				World:   world,
				Accept:  accepts[rank],
				Timeout: 20 * time.Second,
			})
		}(rank)
	}
	sessions[0], errs[0] = coord.Join()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range sessions {
			s.Close()
		}
	})
	return sessions
}

// TestRendezvousThreeRanks: a full three-rank rendezvous over loopback
// — every rank gets the same negotiated codec and a working mesh.
func TestRendezvousThreeRanks(t *testing.T) {
	sessions := joinAll(t, 3, [][]string{
		{"qsgd4b512", "1bit"},
		{"qsgd4b512", "topk0.01"},
		{"1bit*64", "qsgd4b512"},
	})
	for rank, s := range sessions {
		if s.Rank() != rank || s.World() != 3 {
			t.Fatalf("rank %d session claims rank %d of %d", rank, s.Rank(), s.World())
		}
		if s.PolicyName() != "qsgd4b512" {
			t.Fatalf("rank %d negotiated %q, want qsgd4b512", rank, s.PolicyName())
		}
		if s.Policy().Base.Name() != "qsgd4b512" {
			t.Fatalf("rank %d codec object is %q", rank, s.Policy().Base.Name())
		}
		if len(s.Peers()) != 3 {
			t.Fatalf("rank %d sees %d peers", rank, len(s.Peers()))
		}
	}
	// Exercise every directed link of the mesh.
	var wg sync.WaitGroup
	failures := make(chan string, 9)
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			if err := sessions[from].Fabric().Send(from, to, nil, []byte{byte(10*from + to)}); err != nil {
				t.Fatalf("send %d->%d: %v", from, to, err)
			}
			wg.Add(1)
			go func(from, to int) {
				defer wg.Done()
				got, err := sessions[to].Fabric().Recv(from, to)
				if err != nil || len(got) != 1 || got[0] != byte(10*from+to) {
					failures <- strings.Join([]string{"bad message on link"}, " ")
				}
			}(from, to)
		}
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Fatal(f)
	}
}

// TestRendezvousWorldOfOne: the degenerate single-process cluster still
// yields a usable session (the trainer treats it as K=1).
func TestRendezvousWorldOfOne(t *testing.T) {
	s, err := Join(Config{Addr: "127.0.0.1:0", Rank: 0, World: 1, Accept: []string{"1bit"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.World() != 1 || s.PolicyName() != "1bit" {
		t.Fatalf("got world %d codec %q", s.World(), s.PolicyName())
	}
}

// TestRendezvousRejectsMalformedHello: garbage on the rendezvous port
// is rejected — the offender is told and dropped — without sinking the
// rendezvous for the real ranks.
func TestRendezvousRejectsMalformedHello(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: 2, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			defer s.Close()
		}
		joinErr <- err
	}()

	// A stray connection speaking the wrong protocol entirely.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The offender must be answered with a rejection, not a welcome.
	if _, err := readWelcome(conn); err == nil {
		t.Fatal("a malformed hello must not receive a welcome")
	}

	// The real rank 1 still joins and the rendezvous completes.
	s, err := Join(Config{
		Addr: coord.Addr(), Rank: 1, World: 2, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("real worker was sunk by the stray connection: %v", err)
	}
	defer s.Close()
	select {
	case err := <-joinErr:
		if err != nil {
			t.Fatalf("coordinator failed despite a valid membership: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator hung")
	}
}

// TestRendezvousSurvivesSilentStray: a connection that never sends a
// hello (a scanner, a health probe) must neither sink the rendezvous
// nor hold the accept loop long enough to starve the real ranks.
func TestRendezvousSurvivesSilentStray(t *testing.T) {
	oldGrace := handshakeGrace
	handshakeGrace = 200 * time.Millisecond
	defer func() { handshakeGrace = oldGrace }()

	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: 2, Timeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			defer s.Close()
		}
		joinErr <- err
	}()

	// The stray connects first and says nothing.
	stray, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()

	start := time.Now()
	s, err := Join(Config{
		Addr: coord.Addr(), Rank: 1, World: 2, Timeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatalf("real worker was sunk by the silent stray: %v", err)
	}
	defer s.Close()
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("silent stray held the rendezvous for %v", waited)
	}
	if err := <-joinErr; err != nil {
		t.Fatalf("coordinator failed: %v", err)
	}
}

// TestRendezvousRejectsWorldMismatch: a worker configured for a
// different world size is turned away with a reason.
func TestRendezvousRejectsWorldMismatch(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: 2, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			s.Close()
		}
		joinErr <- err
	}()
	_, werr := joinWorker(Config{
		Addr: coord.Addr(), Rank: 1, World: 5, Timeout: 5 * time.Second,
	})
	if werr == nil {
		t.Fatal("worker with mismatched world size must be rejected")
	}
	if !strings.Contains(werr.Error(), "world") {
		t.Fatalf("rejection should name the world mismatch, got: %v", werr)
	}
	if err := <-joinErr; err == nil {
		t.Fatal("coordinator must fail the rendezvous too")
	}
}

// TestRendezvousRejectsDuplicateRank: two workers claiming the same
// rank cannot both join.
func TestRendezvousRejectsDuplicateRank(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: 3, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			s.Close()
		}
		joinErr <- err
	}()
	// Two hellos for rank 1; the second must sink the rendezvous.
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeHello(conn, hello{Rank: 1, World: 3, MeshAddr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-joinErr:
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("expected duplicate-rank failure, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on duplicate ranks")
	}
}

// TestRendezvousNegotiatesFloorOnDisjointSets: end-to-end check that a
// session with no shared codec trains at full precision.
func TestRendezvousNegotiatesFloorOnDisjointSets(t *testing.T) {
	sessions := joinAll(t, 2, [][]string{{"qsgd4b512"}, {"1bit"}})
	for rank, s := range sessions {
		if s.PolicyName() != "32bit" {
			t.Fatalf("rank %d negotiated %q, want the 32bit floor", rank, s.PolicyName())
		}
	}
}

// TestRendezvousNegotiatesMixedPolicy: a full rendezvous over
// non-canonically-spelled mixed-policy advertisements settles every
// rank on the same canonical policy, with the rules intact in the
// session's parsed Policy.
func TestRendezvousNegotiatesMixedPolicy(t *testing.T) {
	sessions := joinAll(t, 3, [][]string{
		{"qsgd4b512;embedding=topk0.01;*.b=32bit", "qsgd8b512"},
		{"qsgd4;embedding=topk0.01;*.b=fp32"}, // alias spelling of the same policy
		{"1bit", "qsgd4b512;embedding=topk0.01;*.b=32bit"},
	})
	const want = "qsgd4b512;embedding=topk0.01;*.b=32bit"
	for rank, s := range sessions {
		if s.PolicyName() != want {
			t.Fatalf("rank %d negotiated %q, want %q", rank, s.PolicyName(), want)
		}
		p := s.Policy()
		if p.Base.Name() != "qsgd4b512" || len(p.Rules) != 2 {
			t.Fatalf("rank %d parsed policy %+v", rank, p)
		}
		if p.Rules[0].Pattern != "embedding" || p.Rules[0].Codec.Name() != "topk0.01" ||
			p.Rules[1].Pattern != "*.b" || p.Rules[1].Codec.Name() != "32bit" {
			t.Fatalf("rank %d rules %+v", rank, p.Rules)
		}
	}
}

// TestWelcomeRoundTripsHeartbeatParameters: the v3 welcome carries the
// session's health-plane settings byte-exactly.
func TestWelcomeRoundTripsHeartbeatParameters(t *testing.T) {
	var buf bytes.Buffer
	in := welcome{
		Policy:            "qsgd4b512",
		Addrs:             []string{"127.0.0.1:1", "127.0.0.1:2"},
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	if err := writeWelcome(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readWelcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.HeartbeatInterval != in.HeartbeatInterval || out.HeartbeatTimeout != in.HeartbeatTimeout {
		t.Fatalf("heartbeat params %v/%v, want %v/%v",
			out.HeartbeatInterval, out.HeartbeatTimeout, in.HeartbeatInterval, in.HeartbeatTimeout)
	}
	// A disabled plane travels as zeros.
	buf.Reset()
	if err := writeWelcome(&buf, welcome{Policy: "32bit", Addrs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if out, err = readWelcome(&buf); err != nil || out.HeartbeatInterval != 0 {
		t.Fatalf("disabled plane round-trip: %v, interval %v", err, out.HeartbeatInterval)
	}
}

// TestRendezvousRejectsOldProtocolVersion: a hello at any version but
// ProtocolVersion — an older build's, or a newer one's — fails the
// rendezvous with an error naming the mismatch, and the coordinator
// answers with a reject written at the sender's own version, so the
// other build's readWelcome reaches the message instead of bailing on
// the version byte.
func TestRendezvousRejectsOldProtocolVersion(t *testing.T) {
	for _, version := range []byte{2, 3, 5} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			coord, err := NewCoordinator(Config{
				Addr: "127.0.0.1:0", World: 2, Timeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			joinErr := make(chan error, 1)
			go func() {
				s, err := coord.Join()
				if s != nil {
					s.Close()
				}
				joinErr <- err
			}()

			conn, err := net.Dial("tcp", coord.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Handcraft the hello prefix every version shares.
			var msg wire.Encoder
			msg.MagicVersion(rendezvousMagic, version)
			msg.U32(1)
			msg.U32(2)
			msg.String("mesh address", 2, maxAddrLen, "127.0.0.1:9")
			msg.U16(0)
			if _, err := conn.Write(msg.Buf); err != nil {
				t.Fatal(err)
			}

			want := fmt.Sprintf("protocol version %d", version)
			select {
			case err := <-joinErr:
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("expected a protocol-version rejection, got: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("coordinator hung on the v%d hello", version)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			hdr := make([]byte, 6)
			if _, err := io.ReadFull(conn, hdr); err != nil {
				t.Fatalf("no reject on the wire: %v", err)
			}
			if hdr[4] != version || hdr[5] != 1 {
				t.Fatalf("reject header version=%d status=%d, want version %d, status 1", hdr[4], hdr[5], version)
			}
		})
	}
}

// TestHelloRoundTripsElasticFields: the v4 hello carries the rejoin
// kind and the completed-step count byte-exactly, -1 included.
func TestHelloRoundTripsElasticFields(t *testing.T) {
	for _, in := range []hello{
		{Rank: 1, World: 3, MeshAddr: "127.0.0.1:1", Accept: []string{"qsgd4b512"}},
		{Rank: 2, World: 3, MeshAddr: "127.0.0.1:2", Rejoin: true, Step: 417},
		{Rank: 2, World: 3, MeshAddr: "127.0.0.1:2", Rejoin: true, Step: -1},
	} {
		var buf bytes.Buffer
		if err := writeHello(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := readHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rejoin != in.Rejoin || out.Step != in.Step || out.Rank != in.Rank {
			t.Fatalf("hello round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestWelcomeRoundTripsElasticFields: the v4 welcome carries the
// session generation, the rejoin window and the step table.
func TestWelcomeRoundTripsElasticFields(t *testing.T) {
	in := welcome{
		Policy:            "qsgd4b512",
		Addrs:             []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		Generation:        2,
		RejoinWindow:      45 * time.Second,
		Steps:             []int64{12, 11, -1},
	}
	var buf bytes.Buffer
	if err := writeWelcome(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readWelcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 || out.RejoinWindow != 45*time.Second {
		t.Fatalf("elastic params: %+v", out)
	}
	if len(out.Steps) != 3 || out.Steps[0] != 12 || out.Steps[2] != -1 {
		t.Fatalf("step table: %v", out.Steps)
	}
	// A mismatched step table must not be writable.
	bad := in
	bad.Steps = []int64{1}
	if err := writeWelcome(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("step table shorter than the membership must not encode")
	}
	// A fresh welcome travels without a table and with window 0.
	fresh := welcome{Policy: "32bit", Addrs: []string{"a"}}
	buf.Reset()
	if err := writeWelcome(&buf, fresh); err != nil {
		t.Fatal(err)
	}
	if out, err = readWelcome(&buf); err != nil || out.RejoinWindow != 0 || out.Steps != nil {
		t.Fatalf("fresh welcome round trip: %+v, %v", out, err)
	}
}

// TestResumePoint pins donor election: maximum completed step wins,
// lowest rank breaks ties, replacements (-1) never donate.
func TestResumePoint(t *testing.T) {
	cases := []struct {
		steps  []int64
		resume int64
		donor  int
	}{
		{[]int64{5, 5, -1}, 5, 0},
		{[]int64{5, 6, -1}, 6, 1},
		{[]int64{-1, 4, 4}, 4, 1},
		{[]int64{0, 0, 0}, 0, 0},
	}
	for _, tc := range cases {
		resume, donor := resumePoint(tc.steps)
		if resume != tc.resume || donor != tc.donor {
			t.Errorf("resumePoint(%v) = (%d, %d), want (%d, %d)",
				tc.steps, resume, donor, tc.resume, tc.donor)
		}
	}
}

// TestSessionHealthGovernedByCoordinator: the coordinator's heartbeat
// settings win on every rank — a worker's own interval (or even its
// wish to disable) is overridden by the welcome, so the whole session
// runs one failure-detection regime.
func TestSessionHealthGovernedByCoordinator(t *testing.T) {
	const world = 2
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: world, Timeout: 10 * time.Second,
		Health: health.Config{Interval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	type joined struct {
		s   *Session
		err error
	}
	worker := make(chan joined, 1)
	go func() {
		s, err := Join(Config{
			Addr: coord.Addr(), Rank: 1, World: world, Timeout: 10 * time.Second,
			// Deliberately contrarian local settings.
			Health: health.Config{Interval: time.Hour, Disable: true},
		})
		worker <- joined{s, err}
	}()
	sess0, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	defer sess0.Close()
	w := <-worker
	if w.err != nil {
		t.Fatal(w.err)
	}
	defer w.s.Close()

	for rank, s := range []*Session{sess0, w.s} {
		m := s.Monitor()
		if m == nil {
			t.Fatalf("rank %d has no monitor despite the coordinator enabling the plane", rank)
		}
		if got := m.Config().Interval; got != 50*time.Millisecond {
			t.Fatalf("rank %d runs interval %v, want the coordinator's 50ms", rank, got)
		}
		if got := m.Config().Timeout; got != 400*time.Millisecond {
			t.Fatalf("rank %d runs timeout %v, want the derived 400ms", rank, got)
		}
	}
}

// TestSessionHealthDisabled: with the plane off on the coordinator, no
// control links are built and Monitor() is nil everywhere.
func TestSessionHealthDisabled(t *testing.T) {
	const world = 2
	coord, err := NewCoordinator(Config{
		Addr: "127.0.0.1:0", World: world, Timeout: 10 * time.Second,
		Health: health.Config{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	type joined struct {
		s   *Session
		err error
	}
	worker := make(chan joined, 1)
	go func() {
		s, err := Join(Config{
			Addr: coord.Addr(), Rank: 1, World: world, Timeout: 10 * time.Second,
			Health: health.Config{Interval: time.Millisecond},
		})
		worker <- joined{s, err}
	}()
	sess0, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	defer sess0.Close()
	w := <-worker
	if w.err != nil {
		t.Fatal(w.err)
	}
	defer w.s.Close()
	if sess0.Monitor() != nil || w.s.Monitor() != nil {
		t.Fatal("monitors exist despite the coordinator disabling the health plane")
	}
}

// TestConfigValidate: every entry point rejects a malformed
// configuration before it opens a socket, including the values
// health.Config.Resolved and elastic.Config.Resolved would otherwise
// quietly rewrite. The rendezvous address is a listener the test holds,
// so an entry point that got past validation would either fail to bind
// it (rank 0) or dial it, which the listener would see.
func TestConfigValidate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	valid := Config{Addr: ln.Addr().String(), Rank: 1, World: 2, Timeout: 500 * time.Millisecond}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero world", func(c *Config) { c.World = 0 }, "world size"},
		{"rank outside world", func(c *Config) { c.Rank = 2 }, "outside world"},
		{"no address", func(c *Config) { c.Addr = "" }, "address is required"},
		{"bad accepted policy", func(c *Config) { c.Accept = []string{"qsgd3"} }, "accepted policy"},
		{"negative timeout", func(c *Config) { c.Timeout = -time.Second }, "handshake timeout"},
		{"negative heartbeat", func(c *Config) { c.Health.Interval = -time.Second }, "must not be negative"},
		{"negative heartbeat timeout", func(c *Config) {
			c.Health = health.Config{Interval: time.Second, Timeout: -time.Second}
		}, "must not be negative"},
		{"heartbeat timeout below interval", func(c *Config) {
			c.Health = health.Config{Interval: time.Second, Timeout: time.Millisecond}
		}, "shorter than the interval"},
		{"negative rejoin window", func(c *Config) {
			c.Elastic = elastic.Config{Enable: true, RejoinWindow: -time.Second}
		}, "rejoin window"},
		{"elastic without health plane", func(c *Config) {
			c.Rank = 0
			c.Health.Disable = true
			c.Elastic.Enable = true
		}, "health plane"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.edit(&cfg)
			errs := map[string]error{"Validate": cfg.Validate()}
			_, errs["Join"] = Join(cfg)
			_, _, errs["Rejoin"] = Rejoin(cfg)
			if cfg.Rank == 0 {
				_, errs["NewCoordinator"] = NewCoordinator(cfg)
			}
			for entry, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %v, want an error naming %q", entry, err, tc.want)
				}
			}
		})
	}

	ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("an entry point dialled the rendezvous despite a configuration error")
	}
}
