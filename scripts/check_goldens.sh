#!/usr/bin/env bash
# Golden-digest differential: the scalar (K=1-equivalent) configurations
# must reproduce their pre-vector-refactor digests bit-identically, at
# MCS_THREADS=1 and 8. This is the standing proof that the fixed-K resource
# vector migration (core/resources.hpp) and the scoring/placement pass
# (sched/scoring.hpp) changed *nothing* about legacy scheduling decisions:
# every float op sequence, every tie-break, every merge order is pinned.
#
# The het batch (mcs_check --het: vector demands, zones, spread limits, node
# scoring) is pinned the same way, so the placement pass cannot drift unseen.
#
# The golden values live in tests/goldens/scalar_digests.txt (key=value).
# If a change legitimately alters scheduling behavior, the goldens must be
# re-pinned in the same commit with an explanation — this script failing on
# an "innocent refactor" is the entire point.
#
# Usage: scripts/check_goldens.sh /path/to/exp_scheduling /path/to/mcs_check \
#            tests/goldens/scalar_digests.txt
set -euo pipefail

exp_sched="${1:-}"
mcs_check="${2:-}"
goldens="${3:-}"
if [[ ! -x "${exp_sched}" || ! -x "${mcs_check}" || ! -f "${goldens}" ]]; then
  echo "usage: $0 /path/to/exp_scheduling /path/to/mcs_check goldens.txt" >&2
  exit 2
fi

want_sched="$(sed -n 's/^exp_scheduling_reps8=//p' "${goldens}")"
want_check="$(sed -n 's/^mcs_check_seeds100=//p' "${goldens}")"
want_het="$(sed -n 's/^mcs_check_het_seeds100=//p' "${goldens}")"
if [[ -z "${want_sched}" || -z "${want_check}" || -z "${want_het}" ]]; then
  echo "FAIL: ${goldens} is missing golden keys" >&2
  exit 2
fi

fail=0
for threads in 1 8; do
  got="$(MCS_THREADS=${threads} "${exp_sched}" --reps 8 --digest)"
  echo "exp_scheduling --reps 8 MCS_THREADS=${threads}: ${got} (want ${want_sched})"
  if [[ "${got}" != "${want_sched}" ]]; then fail=1; fi

  got="$(MCS_THREADS=${threads} "${mcs_check}" --seeds 100 --digest)"
  echo "mcs_check --seeds 100 MCS_THREADS=${threads}: ${got} (want summary ${want_check})"
  if [[ "${got}" != "summary ${want_check}" ]]; then fail=1; fi

  got="$(MCS_THREADS=${threads} "${mcs_check}" --seeds 100 --het --digest)"
  echo "mcs_check --seeds 100 --het MCS_THREADS=${threads}: ${got} (want summary ${want_het})"
  if [[ "${got}" != "summary ${want_het}" ]]; then fail=1; fi
done

if [[ "${fail}" -ne 0 ]]; then
  echo "FAIL: digests drifted from the pinned goldens" >&2
  exit 1
fi
echo "OK: scalar and het configurations are bit-identical to the goldens"
