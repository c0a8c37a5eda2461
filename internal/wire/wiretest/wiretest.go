// Package wiretest holds the test helpers of the packages that own a
// binary wire format: hex golden tables under each package's testdata/,
// and the truncation and cap tables that hold a decoder to the
// conventions of package wire.
package wiretest

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"

	"repro/internal/wire"
)

// Golden compares every named encoding in got with the hex table at
// path (a JSON object of name → hex) and returns the table's bytes for
// the caller to decode; with update set it rewrites the table first.
func Golden(t *testing.T, path string, update bool, got map[string][]byte) map[string][]byte {
	t.Helper()
	table := map[string]string{}
	if update {
		for name, b := range got {
			table[name] = hex.EncodeToString(b)
		}
		raw, _ := json.MarshalIndent(table, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &table)
	}
	if err != nil || len(table) != len(got) {
		t.Fatalf("%s: %v, %d goldens for %d encodings (regenerate with -update-wire-golden)", path, err, len(table), len(got))
	}
	want := map[string][]byte{}
	for name, h := range table {
		if want[name], err = hex.DecodeString(h); err != nil || !bytes.Equal(got[name], want[name]) {
			t.Errorf("%s: %s drifted\n got %x\nwant %s", path, name, got[name], h)
		}
	}
	return want
}

// Field is one field of a message layout: its name as the decoder
// reports it and its size on the wire, a length prefix included.
type Field struct {
	Name string
	Size int
}

// Layout lists a message's fields in wire order.
type Layout []Field

// Magic starts a layout with a magic tag of n bytes and a version byte.
func Magic(n int) Layout { return Layout{{"magic", n}, {"version", 1}} }

// Add appends a field of size bytes.
func (l Layout) Add(name string, size int) Layout { return append(l, Field{name, size}) }

// Truncations cuts msg at every offset and checks that decode fails
// with a *wire.FieldError naming the field the cut falls in, wrapping
// io.EOF when the cut leaves no byte and io.ErrUnexpectedEOF otherwise.
func Truncations(t *testing.T, msg []byte, layout Layout, decode func([]byte) error) {
	t.Helper()
	cut := 0
	for _, f := range layout {
		for end := cut + f.Size; cut < end && cut < len(msg); cut++ {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if err := FieldErr(t, decode(msg[:cut:cut]), f.Name); err != nil && !errors.Is(err, want) {
				t.Errorf("cut at %d of %d: %v, want it to wrap %v", cut, len(msg), err, want)
			}
		}
	}
	if err := decode(msg); err != nil || cut != len(msg) {
		t.Errorf("layout spans %d of %d bytes; the whole message decodes to %v", cut, len(msg), err)
	}
}

// OverCap writes cap+1 into the width-byte length prefix of the first
// field called name and checks that decode fails with a *wire.CapError
// naming that field.
func OverCap(t *testing.T, msg []byte, layout Layout, name string, width int, cap int64, decode func([]byte) error) {
	t.Helper()
	b, at := append([]byte(nil), msg...), 0
	for i := 0; layout[i].Name != name; i++ {
		at += layout[i].Size
	}
	for i := 0; i < width; i++ {
		b[at+i] = byte(uint64(cap+1) >> (8 * i))
	}
	var ce *wire.CapError
	if err := FieldErr(t, decode(b), name); err != nil && !errors.As(err, &ce) {
		t.Errorf("%s one past its cap: %v, want a cap error", name, err)
	}
}

// FieldErr returns err's *wire.FieldError, failing the test unless
// there is one and it names field.
func FieldErr(t *testing.T, err error, field string) error {
	t.Helper()
	var fe *wire.FieldError
	if !errors.As(err, &fe) || fe.Field != field {
		t.Errorf("got %v, want a field error naming %q", err, field)
		return nil
	}
	return fe
}
