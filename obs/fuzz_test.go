package obs

import (
	"regexp"
	"strings"
	"testing"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func FuzzValidMetricName(f *testing.F) {
	for _, s := range []string{"", "a", "lpsgd_wire_tx_bytes_total", "0bad",
		"has space", "colon:ok", "_x", ":y", "a-b", "é", "a\x00b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := ValidMetricName(s)
		want := metricNameRE.MatchString(s)
		if got != want {
			t.Fatalf("ValidMetricName(%q) = %v, regexp says %v", s, got, want)
		}
	})
}

func FuzzValidLabelName(f *testing.F) {
	for _, s := range []string{"", "a", "peer", "0bad", "__reserved",
		"_ok", "colon:no", "a b", "é"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := ValidLabelName(s)
		want := labelNameRE.MatchString(s) && !strings.HasPrefix(s, "__")
		if got != want {
			t.Fatalf("ValidLabelName(%q) = %v, reference says %v", s, got, want)
		}
	})
}

// FuzzEscapeLabelValue checks the escaping is injective-friendly: the
// escaped form contains no raw newline or unescaped quote, and
// unescaping recovers the input.
func FuzzEscapeLabelValue(f *testing.F) {
	for _, s := range []string{"", "plain", `back\slash`, `qu"ote`, "new\nline", `all\"` + "\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e := EscapeLabelValue(s)
		if strings.Contains(e, "\n") {
			t.Fatalf("escaped value contains raw newline: %q", e)
		}
		// Unescape: \\ -> \, \" -> ", \n -> newline.
		var b strings.Builder
		for i := 0; i < len(e); i++ {
			if e[i] == '\\' && i+1 < len(e) {
				switch e[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					t.Fatalf("unknown escape %q in %q", e[i:i+2], e)
				}
				i++
				continue
			}
			if e[i] == '"' {
				t.Fatalf("unescaped quote in %q", e)
			}
			b.WriteByte(e[i])
		}
		if b.String() != s {
			t.Fatalf("round trip: %q -> %q -> %q", s, e, b.String())
		}
	})
}
