#!/usr/bin/env bash
# CI proof of the declarative spec + adaptive refinement loop, end to end:
#
#   round-1 spec --submit--> service fleet --merge--> round-1 CSV
#          `refine` (twice: the emitted round-2 spec must be byte-identical)
#   round-2 spec --single--> uninterrupted oracle
#   round-2 spec --submit, workers SIGKILLed mid-run, resumed, merged--> must
#                                                          byte-match it
#   round-2 spec --resubmit--> service merge must byte-match it too
#
# The round-1 spec deliberately exercises the new axes (negative-rho copula
# correlation, a mixed 2of2/2of3 adjudication axis) so the whole loop runs on
# the PR's surface, not just the legacy grid.
#
# Usage: tools/ci_adaptive_sweep.sh SWEEP_BINARY [WORK_DIR]
#   SWEEP_BINARY  path to a built reldiv_sweep
#   WORK_DIR      scratch directory (default: ./adaptive-ci)
set -euo pipefail
shopt -s nullglob

sweep="$(readlink -f "$1")"
work_dir="${2:-adaptive-ci}"

rm -rf "$work_dir"
mkdir -p "$work_dir"
cd "$work_dir"

cat > round1.spec <<'EOF'
# round 1: copula correlation (incl. negative rho) x adjudication axis,
# uniform starting budget, refinement rule declared up front.
[sweep]
kind = scenario
seed = 20260809
rho_model = copula

[universe mixed]
generator = many_small
faults = 96
p_lo = 0.02
p_hi = 0.2
q_total = 0.8
jitter = 0.2
gen_seed = 7

[axes]
rho = -0.4 0 0.4
omega = 1 0.5
aliasing = 1
adjudication = 2of2 2of3
budget = 20000

[refine]
target_rel_halfwidth = 0.1
min_budget = 5000
max_growth = 4
round_to = 1000
EOF
total_cells=12  # 1 universe x 3 rho x 2 omega x 1 aliasing x 2 adjudications

echo "=== round 1: single-process oracle from the spec ==="
"$sweep" single --spec round1.spec --quiet --out-csv round1_oracle.csv

echo
echo "=== round 1: submit the spec, serve, merge; must match the oracle ==="
"$sweep" submit --root svc --spec round1.spec --name round1
"$sweep" serve --root svc --workers 0 --poll-min-ms 20 --poll-max-ms 200 &
server=$!
"$sweep" merge --root svc --name round1 --wait --out-csv round1.csv
cmp round1_oracle.csv round1.csv

echo
echo "=== describe: the run directory re-states its own identity ==="
"$sweep" describe svc/runs/round1 | tee describe.json
grep -q '"kind": "scenario_grid"' describe.json
grep -q '"rho_model": "copula"' describe.json

echo
echo "=== refine is deterministic: two invocations, byte-identical specs ==="
"$sweep" refine --spec round1.spec --table round1.csv --out round2.spec
"$sweep" refine --spec round1.spec --table round1.csv --out round2b.spec --quiet
cmp round2.spec round2b.spec
grep -q '^cell_budget = ' round2.spec  # the re-budgets actually landed
grep -q '^\[refine\]' round2.spec      # the rule rides along for round 3

echo
echo "=== round 2: uninterrupted single-process oracle ==="
"$sweep" single --spec round2.spec --quiet --out-csv round2_oracle.csv

echo
echo "=== round 2: submit, 4 workers, SIGKILL mid-run, resume, merge ==="
# Its own service root: the `svc` fleet above would otherwise drain the run
# before the kill.  Quota'd AND killed, like ci_distributed_sweep.sh: the
# per-worker quota guarantees the first wave leaves the directory partial
# even if the kill races a fast machine.
"$sweep" submit --root kill-svc --name job --spec round2.spec
run_dir=kill-svc/runs/job
setsid bash -c 'for _ in 1 2 3 4; do "$0" worker --run-dir "$1" --max-cells 1 & done; wait' \
       "$sweep" "$run_dir" &
group=$!
count_states() {
  local files=("$run_dir"/cells/*.state)
  echo "${#files[@]}"
}
for _ in $(seq 1 600); do
  if [[ "$(count_states)" -ge 2 ]]; then break; fi
  sleep 0.1
done
kill -9 -- "-$group" 2>/dev/null || true
wait "$group" 2>/dev/null || true
for _ in $(seq 1 100); do
  if ! ps -eo pgid= | grep -qw "$group"; then break; fi
  sleep 0.1
done
done_cells=$(count_states)
echo "killed round 2 with $done_cells of $total_cells cell state files on disk"
if [[ "$done_cells" -lt 2 || "$done_cells" -ge "$total_cells" ]]; then
  echo "ERROR: kill landed outside the partial window ($done_cells cells)" >&2
  exit 1
fi
workers=()
for _ in 1 2 3 4; do
  "$sweep" worker --run-dir "$run_dir" --quiet &
  workers+=($!)
done
for pid in "${workers[@]}"; do wait "$pid"; done
"$sweep" merge --root kill-svc --name job --out-csv round2_resumed.csv
cmp round2_oracle.csv round2_resumed.csv

echo
echo "=== round 2: resubmit the refined spec to the service ==="
"$sweep" submit --root svc --spec round2.spec --name round2
"$sweep" merge --root svc --name round2 --wait --out-csv round2_service.csv
cmp round2_oracle.csv round2_service.csv

echo
echo "=== drain the fleet ==="
"$sweep" drain --root svc
wait "$server"

echo
echo "OK: spec-driven two-round adaptive sweep — refine byte-deterministic,"
echo "    killed+resumed round 2 and service round 2 both byte-identical to"
echo "    the uninterrupted oracle"
