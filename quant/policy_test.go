package quant

import (
	"strings"
	"testing"
)

func inventory() []TensorInfo {
	// A caricature of a convnet: a couple of giant FC matrices, several
	// medium conv kernels, and many tiny bias/batch-norm vectors.
	return []TensorInfo{
		{Name: "fc6.W", Shape: Shape{Rows: 4096, Cols: 9216}},
		{Name: "fc7.W", Shape: Shape{Rows: 4096, Cols: 4096}},
		{Name: "conv1.W", Shape: Shape{Rows: 11, Cols: 11 * 3 * 96}},
		{Name: "conv2.W", Shape: Shape{Rows: 5, Cols: 5 * 96 * 256}},
		{Name: "conv1.b", Shape: Shape{Rows: 96, Cols: 1}},
		{Name: "conv2.b", Shape: Shape{Rows: 256, Cols: 1}},
		{Name: "bn1.scale", Shape: Shape{Rows: 96, Cols: 1}},
		{Name: "bn1.bias", Shape: Shape{Rows: 96, Cols: 1}},
	}
}

func TestPlanQuantisesAtLeastMinFraction(t *testing.T) {
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), inventory())
	if f := p.QuantisedFraction(); f < 0.99 {
		t.Fatalf("quantised fraction %v < 0.99", f)
	}
}

func TestPlanExemptsSmallTensors(t *testing.T) {
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), inventory())
	small := 0
	for i, ti := range inventory() {
		if _, isFP := p.CodecFor(i).(FP32); isFP {
			small++
			if ti.Shape.Len() >= p.Threshold {
				t.Errorf("tensor %s exempted despite size %d >= threshold %d",
					ti.Name, ti.Shape.Len(), p.Threshold)
			}
		}
	}
	if small == 0 {
		t.Fatal("expected some small tensors to be exempted")
	}
}

func TestPlanThresholdMaximal(t *testing.T) {
	// The chosen threshold should be as large as possible: raising it to
	// the next distinct size must violate the fraction constraint.
	inv := inventory()
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), inv)
	var total int64
	for _, ti := range inv {
		total += int64(ti.Shape.Len())
	}
	next := int(^uint(0) >> 1)
	for _, ti := range inv {
		if n := ti.Shape.Len(); n > p.Threshold && n < next {
			next = n
		}
	}
	if next == int(^uint(0)>>1) {
		return // threshold already at max size
	}
	var quantised int64
	for _, ti := range inv {
		if ti.Shape.Len() >= next {
			quantised += int64(ti.Shape.Len())
		}
	}
	if float64(quantised) >= 0.99*float64(total) {
		t.Fatalf("threshold %d not maximal: %d would still satisfy 99%%", p.Threshold, next)
	}
}

func TestPlanFullPrecisionPassThrough(t *testing.T) {
	p := NewPlan(NewPolicy(FP32{}), inventory())
	for i := range inventory() {
		if _, isFP := p.CodecFor(i).(FP32); !isFP {
			t.Fatalf("fp32 plan assigned non-fp32 codec to tensor %d", i)
		}
	}
	if p.WireBytes() != p.RawBytes() {
		t.Fatal("fp32 plan should have wire == raw bytes")
	}
}

func TestPlanMinFracOneQuantisesEverything(t *testing.T) {
	p := NewPlan(&Policy{Base: NewQSGD(8, 512, MaxNorm), MinFrac: 1.0}, inventory())
	if f := p.QuantisedFraction(); f != 1 {
		t.Fatalf("fraction = %v, want 1", f)
	}
	for i := range inventory() {
		if _, isFP := p.CodecFor(i).(FP32); isFP {
			t.Fatalf("minfrac=1 left tensor %d at full precision", i)
		}
	}
}

func TestPlanWireBytesSmaller(t *testing.T) {
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), inventory())
	if p.WireBytes() >= p.RawBytes() {
		t.Fatalf("4-bit plan did not compress: wire %d raw %d", p.WireBytes(), p.RawBytes())
	}
	ratio := float64(p.RawBytes()) / float64(p.WireBytes())
	if ratio < 6 || ratio > 8 {
		t.Fatalf("4-bit whole-model ratio %v outside plausible [6,8]", ratio)
	}
}

func TestPlanEmptyInventory(t *testing.T) {
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), nil)
	if p.NumTensors() != 0 {
		t.Fatal("empty inventory should have zero tensors")
	}
	if p.QuantisedFraction() != 1 {
		t.Fatal("vacuous fraction should be 1")
	}
}

func TestPlanCodecForPanicsOutOfRange(t *testing.T) {
	p := NewPlan(NewPolicy(NewQSGD(4, 512, MaxNorm)), inventory())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.CodecFor(999)
}

// --- Policy grammar ---

func TestParsePolicyBareCodec(t *testing.T) {
	p, err := ParsePolicy("qsgd4b512")
	if err != nil {
		t.Fatal(err)
	}
	if p.Base.Name() != "qsgd4b512" || p.MinFrac != DefaultMinFrac || len(p.Rules) != 0 {
		t.Fatalf("bare codec parsed as %+v", p)
	}
	if p.Name() != "qsgd4b512" {
		t.Fatalf("default policy over a codec must name as the codec, got %q", p.Name())
	}
}

func TestParsePolicyFull(t *testing.T) {
	p, err := ParsePolicy("qsgd4b512;minfrac=0.95;embedding=topk0.001;*.b=32bit")
	if err != nil {
		t.Fatal(err)
	}
	if p.Base.Name() != "qsgd4b512" || p.MinFrac != 0.95 {
		t.Fatalf("parsed %+v", p)
	}
	if len(p.Rules) != 2 || p.Rules[0].Pattern != "embedding" || p.Rules[0].Codec.Name() != "topk0.001" ||
		p.Rules[1].Pattern != "*.b" || p.Rules[1].Codec.Name() != "32bit" {
		t.Fatalf("rules parsed as %+v", p.Rules)
	}
}

func TestParsePolicyCanonicalises(t *testing.T) {
	// Aliases inside a policy canonicalise: default bucket, fp32, and a
	// minfrac equal to the default all disappear from the name.
	cases := map[string]string{
		"qsgd4":                       "qsgd4b512",
		"fp32":                        "32bit",
		"qsgd4b512;minfrac=0.99":      "qsgd4b512",
		"qsgd4;minfrac=0.5":           "qsgd4b512;minfrac=0.5",
		"qsgd4 ; emb=fp32":            "qsgd4b512;emb=32bit",
		"1bit*; *.bias = qsgd8":       "1bit*64;*.bias=qsgd8b512",
		"qsgd4b512mx;fc=qsgd4b512uni": "qsgd4b512;fc=qsgd4b512-uni",
	}
	for in, want := range cases {
		got, err := CanonicalPolicy(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("CanonicalPolicy(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParsePolicyRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"florp",
		"qsgd4;;",
		"qsgd4;minfrac=0",
		"qsgd4;minfrac=1.5",
		"qsgd4;minfrac=NaN",
		"qsgd4;minfrac=0.9;minfrac=0.8",
		"qsgd4;emb=florp",
		"qsgd4;=32bit",
		"qsgd4;emb",
		"minfrac=0.9",
		"emb=32bit;qsgd4",
		"qsgd4;emb=32bit;emb=topk0.01",
	}
	for _, in := range bad {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) accepted malformed input", in)
		}
	}
}

func TestPolicyNameRoundTrips(t *testing.T) {
	names := []string{
		"32bit",
		"qsgd4b512",
		"qsgd4b512;minfrac=0.5",
		"qsgd4b512;embedding=topk0.001;*.b=32bit",
		"1bit*64;conv?.W=qsgd8b512",
		"topk0.01;minfrac=1;bn1=32bit",
	}
	for _, name := range names {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		rt, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("%q: canonical name %q does not re-parse: %v", name, p.Name(), err)
		}
		if rt.Name() != p.Name() {
			t.Fatalf("%q: round-trip %q != %q", name, rt.Name(), p.Name())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"*", "anything.W", true},
		{"*.b", "conv1.b", true},
		{"*.b", "conv1.bias", false},
		{"*.b*", "conv1.bias", true},
		{"conv?.W", "conv1.W", true},
		{"conv?.W", "conv12.W", false},
		{"conv*", "conv12.W", true},
		{"embedding", "embedding", true},
		{"embedding", "embedding.W", true},
		{"embedding", "embeddings.W", false},
		{"fc6.W", "fc6.W", true},
		{"fc6", "fc6.W", true},
		{"fc", "fc6.W", false},
		{"", "x", false},
		{"*bn*", "deep.bn1.scale", true},
	}
	for _, tc := range cases {
		if got := MatchPattern(tc.pattern, tc.name); got != tc.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v", tc.pattern, tc.name, got, tc.want)
		}
	}
}

// --- Policy evaluation ---

func TestPlanAppliesRulesBeforeThreshold(t *testing.T) {
	p := NewPlan(MustParsePolicy("qsgd4b512;fc6=topk0.001;*.b=32bit"), inventory())
	for i, ti := range inventory() {
		c := p.CodecFor(i)
		switch {
		case ti.Name == "fc6.W":
			if c.Name() != "topk0.001" {
				t.Errorf("%s carried by %s, want the fc6 rule's topk0.001", ti.Name, c.Name())
			}
		case strings.HasSuffix(ti.Name, ".b"):
			if c.Name() != "32bit" {
				t.Errorf("%s carried by %s, want the *.b rule's 32bit", ti.Name, c.Name())
			}
		}
	}
}

func TestPlanFirstMatchingRuleWins(t *testing.T) {
	p := NewPlan(MustParsePolicy("qsgd4b512;conv1=topk0.01;conv*=qsgd8b512"), inventory())
	for i, ti := range inventory() {
		if ti.Name == "conv1.W" && p.CodecFor(i).Name() != "topk0.01" {
			t.Fatalf("conv1.W carried by %s, want the earlier rule's topk0.01", p.CodecFor(i).Name())
		}
		if ti.Name == "conv2.W" && p.CodecFor(i).Name() != "qsgd8b512" {
			t.Fatalf("conv2.W carried by %s, want the conv* rule's qsgd8b512", p.CodecFor(i).Name())
		}
	}
}

func TestPlanThresholdRunsOverUnruledRemainder(t *testing.T) {
	// Claim the two giant FC tensors with a rule: the exemption
	// threshold must then be computed over the conv/bias remainder, so
	// the medium conv kernels stay quantised and only tiny vectors are
	// exempt.
	p := NewPlan(MustParsePolicy("qsgd4b512;fc*=32bit"), inventory())
	for i, ti := range inventory() {
		c := p.CodecFor(i)
		switch ti.Name {
		case "fc6.W", "fc7.W":
			if c.Name() != "32bit" {
				t.Errorf("%s carried by %s, want the rule's 32bit", ti.Name, c.Name())
			}
		case "conv1.W", "conv2.W":
			if c.Name() != "qsgd4b512" {
				t.Errorf("%s carried by %s, want base qsgd4b512 (threshold over the remainder)",
					ti.Name, c.Name())
			}
		}
	}
	if f := p.QuantisedFraction(); f < 0.99 {
		t.Errorf("policy-directed fraction %v < 0.99", f)
	}
}

func TestPlanRuleAssignedFP32NotCountedAsExempt(t *testing.T) {
	// A rule that says 32bit is a policy decision, not an exemption:
	// the quantised fraction must not drop because of it.
	noRules := NewPlan(MustParsePolicy("qsgd4b512;minfrac=1"), inventory())
	ruled := NewPlan(MustParsePolicy("qsgd4b512;minfrac=1;fc6=32bit"), inventory())
	if f := noRules.QuantisedFraction(); f != 1 {
		t.Fatalf("minfrac=1 fraction %v, want 1", f)
	}
	if f := ruled.QuantisedFraction(); f != 1 {
		t.Fatalf("rule-directed 32bit dropped the fraction to %v", f)
	}
	if ruled.WireBytes() <= noRules.WireBytes() {
		t.Fatal("sending fc6 raw must cost wire bytes")
	}
}

func TestPlanNilPolicyIsFullPrecision(t *testing.T) {
	p := NewPlan(nil, inventory())
	if p.WireBytes() != p.RawBytes() {
		t.Fatalf("nil policy moves %d wire bytes for %d raw — not full precision", p.WireBytes(), p.RawBytes())
	}
}

func TestPlanMixedPolicyWireBytesBetweenExtremes(t *testing.T) {
	inv := inventory()
	all4 := NewPlan(MustParsePolicy("qsgd4b512;minfrac=1"), inv)
	mixed := NewPlan(MustParsePolicy("qsgd4b512;minfrac=1;fc7=qsgd16b8192"), inv)
	raw := NewPlan(MustParsePolicy("32bit"), inv)
	if !(all4.WireBytes() < mixed.WireBytes() && mixed.WireBytes() < raw.WireBytes()) {
		t.Fatalf("wire ordering violated: all4 %d, mixed %d, raw %d",
			all4.WireBytes(), mixed.WireBytes(), raw.WireBytes())
	}
}
