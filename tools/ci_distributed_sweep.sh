#!/usr/bin/env bash
# CI proof of the multi-process job driver, one job kind per invocation:
# submit the kind's ci spec, run it across 4 worker processes, SIGKILL the
# whole worker group mid-run, resume with 4 fresh workers from the surviving
# state files, merge, and require the merged CSV/JSON to be byte-equal to
# the single-process oracle.
#
# Usage: tools/ci_distributed_sweep.sh SWEEP_BINARY MODE [WORK_DIR] [BUDGET]
#   SWEEP_BINARY  path to a built reldiv_sweep
#   MODE          scenario | demand | experiment (the driver's three job kinds)
#   WORK_DIR      scratch directory (default: ./sweep-ci-MODE); the service
#                 root inside it is what CI uploads as an artifact
#   BUDGET        samples per cell / demands per target (default: the ci
#                 preset's; shrink for fast local smoke runs)
#
# The first wave is BOTH killed and quota'd (--max-cells): the SIGKILL proves
# the crash story on whatever the workers were doing at that instant, while
# the per-worker quota guarantees the directory is partial when the wave
# ends — so the "resume completes a partial run" leg can never be skipped by
# a fast machine outracing the kill, for any job kind.
set -euo pipefail
shopt -s nullglob  # an empty cells/ dir must count as 0, not as an ls error

sweep="$(readlink -f "$1")"
mode="$2"
work_dir="${3:-sweep-ci-$mode}"
budget="${4:-0}"   # 0 = preset default

# Pre-flight: the sweep exercises the io_env seam and the lease protocol, so
# refuse to run it over sources that violate the repo's own invariants.
# RELDIV_LINT_BIN may point at a prebuilt linter; otherwise build the (single
# translation unit, dependency-free) tool on the spot.
repo_root="$(readlink -f "$(dirname "$0")/..")"
lint_bin="${RELDIV_LINT_BIN:-}"
if [[ -z "$lint_bin" ]]; then
  lint_bin="$(mktemp -t reldiv_lint.XXXXXX)"
  trap 'rm -f "$lint_bin"' EXIT
  "${CXX:-c++}" -O2 -std=c++20 -o "$lint_bin" "$repo_root/tools/reldiv_lint.cpp"
fi
echo "=== pre-flight: reldiv_lint over $repo_root ==="
"$lint_bin" --root "$repo_root"

case "$mode" in
  scenario)
    total_cells=24   # 2 universes x 3 rho x 2 omega x 2 aliasing
    quota=3          # 4 workers x 3 cells = at most 12 of 24 before exit
    ;;
  demand)
    total_cells=49   # 100k-target roster in 2048-target windows
    quota=8          # at most 32 of 49
    ;;
  experiment)
    total_cells=16   # 256 logical shards in 16-shard windows
    quota=2          # at most 8 of 16
    ;;
  *)
    echo "ERROR: unknown mode '$mode' (expected scenario, demand or experiment)" >&2
    exit 2
    ;;
esac

# The single-process oracle is built from the embedded preset flags; the
# distributed run is driven by the SHIPPED spec file for the same preset.
# The final byte-diff therefore also proves the spec path and the preset
# path build fingerprint-identical manifests (satellite of the spec PR).
grid_args=(--mode "$mode" --preset ci --seed 20260731)
spec_args=(--mode "$mode" --spec "$repo_root/examples/specs/${mode}_ci.spec" --seed 20260731)
if [[ "$budget" != "0" ]]; then
  grid_args+=(--budget "$budget")
  spec_args+=(--budget "$budget")
fi

rm -rf "$work_dir"
mkdir -p "$work_dir"
cd "$work_dir"

echo "=== [$mode] single-process oracle ==="
"$sweep" single "${grid_args[@]}" --out-csv single.csv --out-json single.json

echo
echo "=== [$mode] submit, 4 workers, SIGKILL mid-run ==="
"$sweep" submit --root svc --name job "${spec_args[@]}"
run_dir=svc/runs/job
# Own session/process group so one kill(-pgid) takes out every worker,
# exactly like an OOM-killer or node preemption would.
setsid bash -c 'for _ in 1 2 3 4; do "$0" worker --run-dir "$1" --max-cells "$2" & done; wait' \
       "$sweep" "$run_dir" "$quota" &
group=$!

count_states() {
  local files=("$run_dir"/cells/*.state)
  echo "${#files[@]}"
}

# Wait until at least 2 cells are on disk, then kill the whole group (if the
# quota'd wave already exited, the kill is a no-op and the quota has done the
# interrupting for us).
for _ in $(seq 1 600); do
  done_cells=$(count_states)
  if [[ "$done_cells" -ge 2 ]]; then break; fi
  sleep 0.1
done
kill -9 -- "-$group" 2>/dev/null || true
wait "$group" 2>/dev/null || true

# Drain the process group before resuming: the workers are not our children,
# so `wait` can't reap them, and the lease protocol (correctly) refuses to
# steal a claim whose owner might still be alive on this host.  This is the
# same rule a multi-host operator follows — start the next wave only once
# the previous wave's processes are gone or their leases have expired.
for _ in $(seq 1 100); do
  if ! ps -eo pgid= | grep -qw "$group"; then break; fi
  sleep 0.1
done

done_cells=$(count_states)
echo "killed with $done_cells of $total_cells cell state files on disk"
if [[ "$done_cells" -lt 2 ]]; then
  echo "ERROR: no progress before the kill — the run never started" >&2
  exit 1
fi
if [[ "$done_cells" -ge "$total_cells" ]]; then
  # The quota math above guarantees this can't happen; if it does, the
  # presets and this script have drifted apart and the job proves nothing.
  echo "ERROR: run complete before the kill; re-tune the preset/quota pairing" >&2
  exit 1
fi

echo
echo "=== [$mode] resume: 4 fresh workers on the surviving state files, merge ==="
workers=()
for _ in 1 2 3 4; do
  "$sweep" worker --run-dir "$run_dir" &
  workers+=($!)
done
for pid in "${workers[@]}"; do wait "$pid"; done
"$sweep" merge --root svc --name job --out-csv dist.csv --out-json dist.json

echo
echo "=== [$mode] spec-driven merged result must be byte-identical to the"
echo "===         preset-flag single-process run ==="
cmp single.csv dist.csv
cmp single.json dist.json

echo
echo "=== [$mode] run directory hygiene after resume ==="
# A successful resume must leave no poison-cell records behind — quarantine
# is for cells that exhausted their retry budget, and every cell landed.
quarantine=("$run_dir"/quarantine/*.quarantine)
if [[ "${#quarantine[@]}" -gt 0 ]]; then
  echo "ERROR: quarantine ledger non-empty after a successful resume:" >&2
  for q in "${quarantine[@]}"; do
    echo "--- $q" >&2
    cat "$q" >&2
  done
  exit 1
fi
# Leftover claims/tmps are legal (the kill can orphan them; leases expire on
# their own) but worth surfacing so lease-protocol regressions show up in
# the CI log rather than as silent slowdowns.
leftovers=("$run_dir"/cells/*.claim "$run_dir"/cells/*.tmp.*)
echo "leftover claim/tmp files after resume: ${#leftovers[@]}"
for f in "${leftovers[@]}"; do echo "  $f"; done

echo "OK [$mode]: kill+resume distributed run == single-process run, byte for byte"
