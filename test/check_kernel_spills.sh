#!/bin/sh
# Fails, naming the function, when a GEMM register tile in the tensor
# library archive moves a float register to or from the stack: an
# instruction with both an %xmm register and an (%rsp) operand. A tile with
# more live floats than amd64's 16 float registers spills its accumulators
# and reloads and re-stores one at every multiply-add (see the register
# tiles in lib/tensor/blas.ml). The kernels are compiled out of line
# ([@inline never]), so each has exactly one copy to check; one that is
# missing fails too, so a rename cannot skip the check.
#
#   sh test/check_kernel_spills.sh _build/default/lib/tensor/cachebox_tensor.a
set -eu
if [ "$#" -ne 1 ]; then
  echo "usage: check_kernel_spills.sh ARCHIVE" >&2
  exit 2
fi
kernels="Blas.kern4x2 Blas.kern4x1 Blas.kern"
objdump -d --no-show-raw-insn "$1" | awk -v kernels="$kernels" -v archive="$(basename "$1")" '
BEGIN { n = split(kernels, ks, " "); for (i = 1; i <= n; i++) found[ks[i]] = 0 }
# A function header: "0000000000001520 <camlBlas.kern4x2_739>:". OCaml
# 5.1 separates module and function with "."; other releases use "__" or
# "$", so each is read as ".".
/^[0-9a-f]+ <.*>:$/ {
  sym = $2; sub(/^</, "", sym); sub(/>:$/, "", sym)
  name = sym; sub(/^caml/, "", name); sub(/_[0-9]+$/, "", name)
  sub(/__/, ".", name); sub(/\$/, ".", name)
  cur = (name in found) ? name : ""
  if (cur != "") { found[cur]++; fsym[cur] = sym }
  next
}
cur != "" && /%xmm/ && /\(%rsp\)/ {
  if (!(cur in spills)) first[cur] = $0
  spills[cur]++
}
END {
  status = 0
  for (i = 1; i <= n; i++) {
    k = ks[i]
    if (found[k] == 0) {
      printf "%s: no %s: a register tile was renamed or inlined; update test/check_kernel_spills.sh\n", archive, k > "/dev/stderr"
      status = 1
    } else if (spills[k] > 0) {
      line = first[k]; gsub(/[ \t]+/, " ", line)
      printf "%s: %s (%s) moves a float register to or from the stack %d times, e.g.%s\n", archive, k, fsym[k], spills[k], line > "/dev/stderr"
      status = 1
    }
  }
  exit status
}'
