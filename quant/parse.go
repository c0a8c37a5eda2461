package quant

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse resolves a codec name into a codec, deriving every parameter —
// bits, bucket size, normalisation, level scheme, sparsity — from the
// name itself instead of looking it up in a fixed table. The grammar
// covers both the canonical names produced by Codec.Name() and the
// shorthand labels the paper's tables use:
//
//	32bit | fp32                     full precision
//	1bit                             classic column-wise 1bitSGD
//	1bit*[<bucket>]                  reshaped 1bitSGD* (default bucket 64)
//	qsgd<bits>[b<bucket>][<mods>]    QSGD; bits ∈ {2,4,8,16}
//	topk<density>                    sparse top-k, density ∈ (0,1]
//
// When the bucket is omitted, QSGD uses the paper's tuned default for
// the bit width (§4.4): 128 for 2-bit, 512 for 4/8-bit, 8192 for
// 16-bit — so "qsgd4" and "qsgd4b512" are the same codec. Modifiers
// select the normalisation and level scheme and may be separated by
// dashes: "l2" (2-norm), "max"/"mx" (infinity norm, the default),
// "uni" (uniform levels), "exp" (exponential levels), "sm"
// (sign-magnitude, the default). For example "qsgd4b512mx" and
// "qsgd4b512" name the same codec, and "qsgd4b512-l2-uni" is 4-bit
// QSGD with 2-norm scaling and uniform levels.
//
// Parse(c.Name()) round-trips for every codec in the package, which is
// what lets the framed wire format (frame.go) carry the codec identity
// as a compact string and reconstruct the exact codec on the far side.
func Parse(name string) (Codec, error) {
	s := strings.TrimSpace(name)
	switch {
	case s == "32bit" || s == "fp32":
		return FP32{}, nil
	case s == "1bit":
		return OneBit{}, nil
	case strings.HasPrefix(s, "1bit*"):
		return parseOneBitReshaped(s[len("1bit*"):])
	case strings.HasPrefix(s, "qsgd"):
		return parseQSGD(s[len("qsgd"):])
	case strings.HasPrefix(s, "topk"):
		return parseTopK(s[len("topk"):])
	}
	return nil, fmt.Errorf("quant: unknown codec %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// MustParse is Parse for static configuration; it panics on error.
func MustParse(name string) Codec {
	c, err := Parse(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Canonical resolves a codec name to its canonical spelling — the one
// Codec.Name() produces — so that aliases compare as equals: "fp32"
// canonicalises to "32bit", "qsgd4" (the paper's tuned default bucket)
// to "qsgd4b512", "qsgd4b512mx" to "qsgd4b512". Capability exchanges
// (cluster policy negotiation, where codec names are the leaves of the
// policy grammar — see CanonicalPolicy) intersect advertised sets by
// canonical spelling, not raw spelling.
func Canonical(name string) (string, error) {
	c, err := Parse(name)
	if err != nil {
		return "", err
	}
	return c.Name(), nil
}

// Names returns canonical example names for every codec family, in the
// paper's presentation order. These are exact Parse inputs, but unlike
// the old fixed registry they are samples of a grammar, not the full
// vocabulary: any bucket, norm, scheme or density spelling that the
// grammar accepts works too.
func Names() []string {
	names := make([]string, 0, 12)
	for _, c := range PaperCodecs() {
		names = append(names, c.Name())
	}
	for _, c := range ExtensionCodecs() {
		names = append(names, c.Name())
	}
	return names
}

// DefaultQSGDBucket returns the paper's tuned bucket size for a QSGD
// bit width (§4.4): 128 for 2 bits, 512 for 4 and 8 bits, 8192 for 16
// bits.
func DefaultQSGDBucket(bits int) int {
	switch bits {
	case 2:
		return 128
	case 16:
		return 8192
	default:
		return 512
	}
}

// parseOneBitReshaped parses the "<bucket>" tail of "1bit*<bucket>".
// An empty tail selects the paper's tuned default bucket of 64.
func parseOneBitReshaped(rest string) (Codec, error) {
	if rest == "" {
		return NewOneBitReshaped(64), nil
	}
	b, err := strconv.Atoi(rest)
	if err != nil || b <= 0 {
		return nil, fmt.Errorf("quant: bad 1bit* bucket %q (want a positive integer)", rest)
	}
	return NewOneBitReshaped(b), nil
}

// parseQSGD parses the "<bits>[b<bucket>][<mods>]" tail of a QSGD name.
func parseQSGD(rest string) (Codec, error) {
	digits := leadingDigits(rest)
	if digits == "" {
		return nil, fmt.Errorf("quant: qsgd codec needs a bit width, e.g. qsgd4")
	}
	bits, err := strconv.Atoi(digits)
	if err != nil {
		return nil, fmt.Errorf("quant: bad qsgd bits %q: %v", digits, err)
	}
	switch bits {
	case 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("quant: qsgd bits must be 2, 4, 8 or 16, got %d", bits)
	}
	rest = rest[len(digits):]

	bucket := DefaultQSGDBucket(bits)
	if strings.HasPrefix(rest, "b") {
		digits = leadingDigits(rest[1:])
		if digits == "" {
			return nil, fmt.Errorf("quant: qsgd bucket suffix %q needs digits, e.g. b512", rest)
		}
		if bucket, err = strconv.Atoi(digits); err != nil || bucket <= 0 {
			return nil, fmt.Errorf("quant: bad qsgd bucket %q (want a positive integer)", digits)
		}
		rest = rest[1+len(digits):]
	}

	norm, scheme := MaxNorm, SignMagnitude
	for rest != "" {
		rest = strings.TrimPrefix(rest, "-")
		switch {
		case strings.HasPrefix(rest, "l2"):
			norm, rest = TwoNorm, rest[2:]
		case strings.HasPrefix(rest, "max"):
			norm, rest = MaxNorm, rest[3:]
		case strings.HasPrefix(rest, "mx"):
			norm, rest = MaxNorm, rest[2:]
		case strings.HasPrefix(rest, "uni"):
			scheme, rest = Uniform, rest[3:]
		case strings.HasPrefix(rest, "exp"):
			scheme, rest = Exponential, rest[3:]
		case strings.HasPrefix(rest, "sm"):
			scheme, rest = SignMagnitude, rest[2:]
		default:
			return nil, fmt.Errorf("quant: unknown qsgd modifier %q (want l2, max/mx, uni, exp or sm)", rest)
		}
	}
	return NewQSGDScheme(bits, bucket, norm, scheme), nil
}

// parseTopK parses the "<density>" tail of "topk<density>".
func parseTopK(rest string) (Codec, error) {
	d, err := strconv.ParseFloat(rest, 64)
	// The negated comparison also rejects NaN, which would pass both
	// "d <= 0" and "d > 1".
	if err != nil || !(d > 0 && d <= 1) {
		return nil, fmt.Errorf("quant: bad topk density %q (want a number in (0,1])", rest)
	}
	return NewTopK(d), nil
}

// leadingDigits returns the maximal ASCII-digit prefix of s.
func leadingDigits(s string) string {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i]
}
