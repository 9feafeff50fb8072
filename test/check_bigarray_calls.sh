#!/bin/sh
# Fails, naming the archive, when a CacheBox library archive calls the
# generic Bigarray accessors caml_ba_get_N / caml_ba_set_N: a kernel takes
# a bigarray parameter whose type is not spelled out (see lib/tensor/blas.ml).
#
#   sh test/check_bigarray_calls.sh _build/default/lib/*/cachebox_*.a
set -eu
if [ "$#" -eq 0 ]; then
  echo "check_bigarray_calls: no archives given" >&2
  exit 2
fi
status=0
for a in "$@"; do
  undefined=$(nm -u "$a")
  syms=$(printf '%s\n' "$undefined" | grep -oE 'caml_ba_(get|set)_[0-9]+' | sort -u | tr '\n' ' ')
  if [ -n "$syms" ]; then
    echo "$(basename "$a") references ${syms% }: a kernel takes an untyped bigarray parameter" >&2
    status=1
  fi
done
exit "$status"
