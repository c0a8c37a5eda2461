#!/bin/sh
# check_vex.sh — no legacy SSE instruction in the module's amd64 assembly.
#
# The AVX2 kernels keep live state in the upper halves of the YMM
# registers. A legacy-SSE-encoded instruction (MOVL AX, X14, PXOR,
# MOVUPS, ...) among VEX-encoded ones makes the CPU save or merge those
# upper halves — an SSE/AVX transition — and one in a kernel's prologue
# was measured to make a QSGD kernel 3.8x slower, with every output bit
# unchanged, so no parity test can notice. This script assembles every
# package that has amd64 assembly with the assembler's listing and fails
# on any instruction that has an X or Y register operand and a mnemonic
# not starting with V. It reads the listing rather than the source
# because the kernels are mostly macro calls, which a text search of
# the .s files cannot see through.
#
# Usage: scripts/check_vex.sh [package ...]
#        (default: every package of the module with amd64 .s files)
set -eu

if [ $# -eq 0 ]; then
	# shellcheck disable=SC2046
	set -- $(GOARCH=amd64 go list -f '{{if .SFiles}}{{.ImportPath}}{{end}}' ./...)
fi
[ $# -gt 0 ] || { echo "no package with amd64 assembly" >&2; exit 1; }
listing=$(mktemp)
trap 'rm -f "$listing"' EXIT

# -S output is replayed from the build cache, so repeated runs are cheap.
# Instruction lines read "\t0xoff pc (file.s:line)\tMNEMONIC\toperands".
GOARCH=amd64 go build -asmflags=-S "$@" >"$listing" 2>&1
grep -q '\.s:[0-9]*)' "$listing" || { echo "no assembly listing for $*" >&2; exit 1; }
hits=$(awk -F'\t' '
	NF >= 4 && $2 ~ /\.s:[0-9]+\)$/ && $3 !~ /^V/ && $4 ~ /(^|[^A-Za-z0-9_])[XY][0-9]+([^0-9]|$)/ {
		loc = $2
		sub(/^.*\(/, "", loc)
		sub(/\)$/, "", loc)
		print loc ": " $3 " " $4
	}' "$listing" | sort -u)
if [ -n "$hits" ]; then
	echo "legacy SSE instructions in the amd64 assembly of $*:" >&2
	echo "$hits" >&2
	echo "use the VEX form (VMOVD, VMOVQ, VPXOR, VMOVUPS, ...) for every X/Y register operand" >&2
	exit 1
fi
echo "every X/Y register instruction is VEX-encoded in $*"
