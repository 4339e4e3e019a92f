#!/usr/bin/env bash
# Symbol hygiene for the per-ISA GEMM kernel objects (DESIGN.md §5.7).
#
# src/tensor/gemm_kernels.cpp is compiled once per ISA with wider -m flags.
# A weak or COMDAT symbol (an out-of-line inline function, a template
# instantiation, a static local's guard) defined in such an object is
# merged by the linker with every other copy of the same name, and the
# linker may keep the AVX-512 one — which then runs on a baseline host.
# So every weak/unique symbol an ISA object defines must carry that copy's
# own namespace in its name; anything else fails this check.
#
# Usage: tools/check_isa_symbols.sh <namespace> <object> [<namespace> <object> ...]
#   e.g. tools/check_isa_symbols.sh isa_avx2 gemm_kernels_avx2.o
set -euo pipefail

if [ $# -lt 2 ] || [ $(($# % 2)) -ne 0 ]; then
  echo "usage: $0 <namespace> <object> [<namespace> <object> ...]" >&2
  exit 2
fi

fail=0
while [ $# -gt 0 ]; do
  ns="$1" obj="$2"
  shift 2
  syms="$(nm -C --defined-only "$obj")"
  if ! grep -q "::${ns}::" <<<"$syms"; then
    echo "check_isa_symbols: $obj defines nothing in namespace $ns" \
         "(wrong object or namespace?)"
    fail=1
    continue
  fi
  # nm types: W/w weak code, V/v weak object, u GNU unique (COMDAT statics).
  bad="$(awk '$2 ~ /^[WwVvu]$/' <<<"$syms" | grep -v -F "::${ns}::" || true)"
  if [ -n "$bad" ]; then
    echo "check_isa_symbols: $obj defines weak/COMDAT symbols outside" \
         "namespace $ns:"
    echo "$bad"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_isa_symbols: FAILED"
  exit 1
fi
echo "check_isa_symbols: OK"
