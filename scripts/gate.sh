#!/usr/bin/env bash
# Determinism gate: runs CMD at MCS_THREADS=1,1,8,8 and requires every run
# to exit 0 with byte-identical stdout and byte-identical files under {out}.
# One run thus checks at once whatever CMD prints or writes: sweep digests,
# `trace digest` lines, Chrome traces, mcs-report-v1 JSON, SARIF.
#
# In each ARG, `{threads}` becomes the run's thread count (how
# `mcs_lint --jobs {threads}` follows MCS_THREADS) and `{out}` becomes a
# scratch directory, emptied before every run and always at the same path.
# With `--golden KEY`, the last stdout token must also equal KEY's value in
# tests/goldens/scalar_digests.txt; re-pin a golden only for a deliberate
# behaviour change, explained in the same commit.
#
# Usage: scripts/gate.sh [--golden KEY] -- CMD ARG...
set -euo pipefail

usage() { echo "usage: $0 [--golden KEY] -- CMD ARG..." >&2; exit 2; }
key=""
if [[ "${1:-}" == "--golden" && $# -ge 2 ]]; then key="$2"; shift 2; fi
[[ "${1:-}" == "--" && $# -ge 2 ]] || usage
shift

if [[ -n "${key}" ]]; then
  goldens="$(dirname "$0")/../tests/goldens/scalar_digests.txt"
  want="$(sed -n "s/^${key}=//p" "${goldens}")"
  [[ -n "${want}" ]] || { echo "FAIL: no golden ${key} in ${goldens}" >&2; exit 2; }
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

run=0
for threads in 1 1 8 8; do
  run=$((run + 1))
  mkdir "${tmp}/out" "${tmp}/${run}"
  argv=()
  for arg in "$@"; do
    arg="${arg//"{threads}"/${threads}}"
    argv+=("${arg//"{out}"/${tmp}/out}")
  done
  if ! MCS_THREADS=${threads} "${argv[@]}" > "${tmp}/${run}/stdout"; then
    echo "FAIL: run ${run} (MCS_THREADS=${threads}) exited nonzero" >&2
    exit 1
  fi
  mv "${tmp}/out" "${tmp}/${run}/out"
  last="$(awk '{ for (i = 1; i <= NF; ++i) t = $i } END { print t }' \
          "${tmp}/${run}/stdout")"
  echo "run ${run} MCS_THREADS=${threads}: ${last}"
  if [[ -n "${key}" && "${last}" != "${want}" ]]; then
    echo "FAIL: golden ${key} mismatch: want ${want}, got ${last}" >&2
    exit 1
  fi
  if ! diff -r "${tmp}/1" "${tmp}/${run}" | head -n 40; then
    echo "FAIL: run ${run} (MCS_THREADS=${threads}) diverges from run 1" >&2
    exit 1
  fi
done
echo "OK: 4 runs byte-identical${key:+, golden ${key} = ${want}}"
