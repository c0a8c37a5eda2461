#!/bin/sh
# check_nofma.sh — no fused multiply-add in the module's arm64 code.
#
# Go may fuse x*y ± z into one instruction where the architecture has
# one (arm64: FMADD, FMSUB, FNMADD, FNMSUB), rounding once where amd64
# rounds twice, so an arm64 rank would compute different bits from an
# amd64 rank and the replicas of a mixed cluster would drift apart. An
# explicit float32(...) or float64(...) conversion around the product
# forbids the fusion. This script compiles the given packages for arm64
# with the compiler's assembly listing and fails if an instruction of
# the module's own non-test source, inlined or not, is a fused
# multiply-add (single or double precision). The listing covers every
# function the packages define, including those no test or binary
# reaches, which the linker would drop from a test binary.
#
# One host dependence sits outside the module's code: on amd64, math.Exp
# takes an FMA path when the CPU has FMA (math's useFMA), so its float64
# result can differ in the last bits between amd64 hosts. The float32
# activations built on it (tensor.Sigmoid, tensor.Tanh) do not: after
# their float32 rounding they equal the FMA-free sequence on every
# float32 input (go test ./tensor -run TestActivationExhaustive
# -exhaustive). The softmax head's float64 sum of math.Exp terms
# (nn/loss.go) is not covered by that argument.
#
# Usage: scripts/check_nofma.sh [package ...]
#        (default: the training path, ./nn ./quant ./tensor ./comm ./data
#        ./parallel ./rng)
set -eu

[ $# -gt 0 ] || set -- ./nn ./quant ./tensor ./comm ./data ./parallel ./rng
root=$(go list -m -f '{{.Dir}}')/
listing=$(mktemp)
trap 'rm -f "$listing"' EXIT

# -S output is replayed from the build cache, so repeated runs are cheap.
# Instruction lines read "0xoff line (file.go:line) MNEMONIC operands".
GOARCH=arm64 go build -gcflags=-S "$@" >"$listing" 2>&1
hits=$(awk -v root="$root" '
	$3 ~ /^\(/ && $4 ~ /^FN?M(ADD|SUB)[SD]$/ {
		loc = substr($3, 2, length($3) - 2)
		if (index(loc, root) == 1 && loc !~ /_test\.go:/)
			print substr(loc, length(root) + 1), $4
	}' "$listing" | sort -u)
if [ -n "$hits" ]; then
	echo "fused multiply-add in the arm64 build of $*:" >&2
	echo "$hits" >&2
	echo "wrap each product in float32(...) or float64(...) to round it before the add" >&2
	exit 1
fi
echo "no fused multiply-add in $*"
