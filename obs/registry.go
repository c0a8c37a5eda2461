package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a series at
// registration time. Labels are baked into the handle — the hot path
// never formats or hashes them.
type Label struct {
	Key, Value string
}

// ValidMetricName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidLabelName reports whether s is a legal Prometheus label name:
// [a-zA-Z_][a-zA-Z0-9_]*. Names starting with "__" are reserved by the
// exposition format and rejected.
func ValidLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil Counter is a no-op, so instrumented code needs no
// enabled-check.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. A nil Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// kind discriminates what a series renders as.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() int64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       kind
	buckets    string // histogram bucket signature, for conflict checks
	series     map[string]*series
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; build one with NewRegistry. A nil
// *Registry hands out nil handles, making every registration and every
// update a no-op — the disabled fast path.
//
// Registration is idempotent: asking for the same (name, labels) again
// returns the existing handle, which is what lets a rejoin round
// re-wire its replacement monitor without double-registering.
// Conflicting re-registration (same name, different kind, help or
// buckets) panics — that is a programming error, not runtime input.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// renderLabels validates and renders a sorted, escaped label block.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !ValidLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline. Writers that render their own
// exposition text put every label value through it.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// lookup finds or creates the (family, series) slot, enforcing the
// conflict rules. Returns nil when r is nil.
func (r *Registry) lookup(name, help string, k kind, buckets string, labels []Label) *series {
	if r == nil {
		return nil
	}
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: map[string]*series{}}
		r.fams[name] = f
	} else if f.kind != k || f.help != help || f.buckets != buckets {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind, help or buckets", name))
	}
	s := f.series[lbl]
	if s == nil {
		s = &series{labels: lbl}
		f.series[lbl] = s
	}
	return s
}

// Counter registers (or finds) a counter series and returns its
// handle. Nil registry → nil handle (no-op).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, "", labels)
	if s == nil {
		return nil
	}
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, "", labels)
	if s == nil {
		return nil
	}
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Func registers a callback-backed gauge: fn is sampled at scrape time
// only, so wiring an existing atomic (a fabric byte counter, a
// detector's phi) costs the hot path nothing. Re-registering the same
// (name, labels) replaces the callback.
func (r *Registry) Func(name, help string, fn func() int64, labels ...Label) {
	s := r.lookup(name, help, kindFunc, "", labels)
	if s == nil {
		return
	}
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a histogram series with the given
// bucket upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []int64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly increasing", name))
		}
	}
	sig := fmt.Sprint(buckets)
	s := r.lookup(name, help, kindHistogram, sig, labels)
	if s == nil {
		return nil
	}
	if s.h == nil {
		s.h = newHistogram(buckets)
	}
	return s.h
}

// WriteText renders every family in the Prometheus text exposition
// format: families sorted by name, series sorted by label block,
// histogram buckets cumulative with _sum and _count. The output is
// deterministic for a fixed set of registrations and values.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot the family structure under the lock; values are read
	// atomically afterwards (callbacks must not run under the registry
	// lock — one could legitimately register lazily elsewhere).
	type row struct {
		s *series
	}
	fams := make([]*family, len(names))
	rows := make([][]*series, len(names))
	for i, n := range names {
		f := r.fams[n]
		fams[i] = f
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rows[i] = append(rows[i], f.series[k])
		}
	}
	r.mu.Unlock()

	var buf []byte
	for i, f := range fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range rows[i] {
			switch f.kind {
			case kindHistogram:
				buf = s.h.appendText(buf, f.name, s.labels)
			case kindFunc:
				var v int64
				if s.fn != nil {
					v = s.fn()
				}
				buf = appendSample(buf, f.name, s.labels, v)
			case kindCounter:
				buf = appendSample(buf, f.name, s.labels, s.c.Value())
			default:
				buf = appendSample(buf, f.name, s.labels, s.g.Value())
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendSample appends one "name{labels} value\n" line.
func appendSample(b []byte, name, labels string, v int64) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	b = append(b, '\n')
	return b
}
