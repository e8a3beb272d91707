#!/bin/sh
# End-to-end smoke test of cmd/sfcasm, the assembler's runner:
#   - on examples/asm/stride_conflict.s, `-run arch` (the functional model
#     alone) and `-run baseline` (the full pipeline) report the same
#     instruction count at the same budget,
#   - a program with a misaligned load makes `-run arch` exit 1 and print
#     the fault.
# Run via `make asm-smoke`; part of `make ci`.
set -eu

TMP=$(mktemp -d)
cleanup() { rm -rf "$TMP"; }
trap cleanup EXIT INT TERM

echo "asm-smoke: building sfcasm"
go build -o "$TMP/sfcasm" ./cmd/sfcasm

prog=examples/asm/stride_conflict.s
"$TMP/sfcasm" -run arch -insts 20000 "$prog" >"$TMP/arch.txt"
"$TMP/sfcasm" -run baseline -insts 20000 "$prog" >"$TMP/pipe.txt"
arch=$(sed -n 's/^functional run: \([0-9]*\) instructions retired.*/\1/p' "$TMP/arch.txt")
pipe=$(sed -n 's/^pipeline run .* retired=\([0-9]*\) .*/\1/p' "$TMP/pipe.txt")
if [ -z "$arch" ] || [ "$arch" != "$pipe" ]; then
    echo "asm-smoke: -run arch retired '$arch', -run baseline retired '$pipe'" >&2
    cat "$TMP/arch.txt" "$TMP/pipe.txt" >&2
    exit 1
fi
echo "asm-smoke: arch and baseline both retired $arch instructions"

cat >"$TMP/misaligned.s" <<'ASM'
        .data
buf:    .space 16
        .text
        la   r1, buf
        addi r1, r1, 1
        ld   r2, 0(r1)          ; 8-byte load from an odd address
        halt
ASM
status=0
"$TMP/sfcasm" -run arch "$TMP/misaligned.s" >"$TMP/fault.out" 2>"$TMP/fault.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "misaligned ld at PC" "$TMP/fault.err"; then
    echo "asm-smoke: misaligned load: exit $status, want 1 with the fault on stderr" >&2
    cat "$TMP/fault.out" "$TMP/fault.err" >&2
    exit 1
fi
echo "asm-smoke: misaligned load faults: $(cat "$TMP/fault.err")"
echo "asm-smoke: OK"
