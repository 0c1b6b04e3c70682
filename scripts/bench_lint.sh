#!/usr/bin/env bash
# Times a full mcs_lint run over the tree (src bench tests tools examples
# perfbench) at --jobs 1 and --jobs 8 and records the results under a label
# in BENCH_micro.json, alongside the E10 microbenchmarks. Existing labels are
# preserved — the file accumulates snapshots for comparison:
#
#   scripts/bench_lint.sh pr7_lint
#
# Env: BUILD_DIR (default: build), MCS_LINT_REPS (default: 5).
set -euo pipefail

label="${1:-pr7_lint}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
reps="${MCS_LINT_REPS:-5}"
out_json="${repo_root}/BENCH_micro.json"
exe="${build_dir}/tools/mcs_lint"

if [[ ! -x "${exe}" ]]; then
  echo "error: ${exe} not found — build first (cmake --build ${build_dir} --target mcs_lint)" >&2
  exit 1
fi

cd "${repo_root}"
python3 - "${out_json}" "${label}" "${exe}" "${reps}" <<'PY'
import json
import subprocess
import sys
import time

out_path, label, exe, reps = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
paths = ["src", "bench", "tests", "tools", "examples", "perfbench"]

merged = {}
for jobs in (1, 8):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [exe, "--jobs", str(jobs), *paths], capture_output=True)
        elapsed = time.perf_counter() - t0
        # Exit 1 (findings) is a legal outcome for a timing run; anything
        # else means the tool itself broke.
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode())
            sys.exit(proc.returncode)
        best = elapsed if best is None else min(best, elapsed)
    merged[f"LintTree/jobs:{jobs}"] = {
        "real_time_ns": best * 1e9,
        "cpu_time_ns": best * 1e9,
        "iterations": reps,
    }
    print(f"LintTree/jobs:{jobs}  best of {reps}: {best * 1e3:.1f} ms")

try:
    with open(out_path) as f:
        doc = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}
doc.setdefault(label, {}).update(merged)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {len(merged)} entries under '{label}' to {out_path}")
PY
