package worker

import (
	"bytes"
	"errors"
	"flag"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/elastic"
	"repro/health"
	"repro/lpsgd"
)

// parse builds a rank's Config from a command line the way Main does.
func parse(t *testing.T, args ...string) Config {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("lpsgd-worker", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConfigErrorsExitUsage: every configuration error is exit 2 and
// is reported before the rank opens a socket. The rendezvous address
// is a listener the test holds, so a rank that got past validation
// would either fail to bind it (rank 0, exit 3) or dial it (any other
// rank), which the listener would see.
func TestConfigErrorsExitUsage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad policy", []string{"-rank", "1", "-policy", "qsgd3"}, "-policy"},
		{"bad accept", []string{"-rank", "1", "-accept", "qsgd4b512,nope"}, "accepted policy"},
		{"rank outside world", []string{"-rank", "3", "-world", "3"}, "outside world"},
		{"negative rank", []string{"-rank", "-1"}, "outside world"},
		{"elastic without heartbeat", []string{"-rank", "0", "-rejoin-window", "1s", "-heartbeat", "0"}, "health plane"},
		{"negative heartbeat", []string{"-rank", "1", "-heartbeat", "-1s"}, "must not be negative"},
		{"timeout below interval", []string{"-rank", "2", "-world", "3", "-rejoin", "-heartbeat", "1s", "-heartbeat-timeout", "10ms"}, "shorter than the interval"},
		{"negative telemetry", []string{"-rank", "1", "-telemetry-every", "-1"}, "-telemetry-every"},
		{"unknown task", []string{"-rank", "0", "-task", "speech"}, "unknown task"},
		{"rejoin with load", []string{"-rank", "1", "-rejoin", "-load", "model.ckpt"}, "-rejoin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, append([]string{"-coordinator", addr, "-join-timeout", "500ms"}, tc.args...)...)
			var stdout, stderr bytes.Buffer
			if code := Run(c, Hooks{}, &stdout, &stderr); code != exitUsage {
				t.Fatalf("exit %d, want %d; stderr: %s", code, exitUsage, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
		})
	}

	ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("a rank dialled the rendezvous despite a configuration error")
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal(err)
	}
}

// TestLocalBadPolicyExitUsage: a policy that does not parse is a usage
// error in single-process training too.
func TestLocalBadPolicyExitUsage(t *testing.T) {
	var f Flags
	f.Register(flag.NewFlagSet("lpsgd-train", flag.ContinueOnError))
	f.Policy = "qsgd3"
	var stderr bytes.Buffer
	trained := func(*lpsgd.Trainer, *lpsgd.History) error { t.Fatal("trained with a bad policy"); return nil }
	if code := Local(f, 2, trained, &stderr); code != exitUsage {
		t.Fatalf("exit %d, want %d; stderr: %s", code, exitUsage, stderr.String())
	}
}

// TestRejoinBudget: a replacement waits the resolved heartbeat timeout
// plus the resolved rejoin window plus -join-timeout.
func TestRejoinBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want time.Duration
	}{
		{"explicit", []string{"-heartbeat", "100ms", "-heartbeat-timeout", "2s", "-rejoin-window", "60s", "-join-timeout", "60s"}, 122 * time.Second},
		{"defaults", nil, 8*health.DefaultInterval + elastic.DefaultRejoinWindow + 30*time.Second},
		{"timeout from interval", []string{"-heartbeat", "50ms", "-rejoin-window", "5s", "-join-timeout", "1s"}, 400*time.Millisecond + 6*time.Second},
		{"health plane off", []string{"-heartbeat", "0", "-rejoin-window", "10s", "-join-timeout", "5s"}, 15 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := parse(t, append([]string{"-rank", "2", "-world", "3", "-rejoin"}, tc.args...)...)
			cfg, err := c.clusterConfig()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Timeout != tc.want {
				t.Fatalf("rejoin budget %v, want %v", cfg.Timeout, tc.want)
			}
		})
	}
}
