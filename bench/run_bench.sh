#!/usr/bin/env bash
# Reproducible perf pipeline: build Release, run the perf microbenchmarks,
# and record google-benchmark JSON so the perf trajectory is tracked across
# PRs:
#   BENCH_p1.json — kernel + end-to-end engine comparison (bench_p1_perf;
#                   BM_RunExperimentExact is the bit-exact reference engine,
#                   BM_RunExperimentFastSimd the default one, BM_SampleVersion
#                   the sparse sampler the mask kernels replaced, now the
#                   test oracle tests/sparse_oracle.hpp).
#   BENCH_p2.json — deterministic sharded-runner throughput across worker
#                   counts (bench_runner_scaling; one thread is the
#                   baseline).
#   BENCH_p3.json — unified campaign layer (bench_campaign_scaling): KL
#                   empirical scoring serial baseline vs the multithreaded
#                   demand campaign, fast-simd vs exact on a shuffled
#                   grouped universe (the p-sorted relayout's gain), and
#                   scenario-grid cell throughput.
#   BENCH_p4.json — SIMD kernels (bench_p4_simd): the fast-simd engine
#                   (counter generation + p-sorted relayout + runtime SIMD
#                   dispatch) vs the exact engine at the same SIMD cap on
#                   heterogeneous and random n=1024 universes,
#                   scenario_ci's 256-fault mixture cell with the xoshiro
#                   pair step vs its scalar level, and both SIMD families
#                   dispatched vs capped at AVX2; the cell's xoshiro pair
#                   step and fast-simd's counter pair step on their own (ns
#                   per pair) at each level.
#   BENCH_p5.json — sweep-service front-end (bench_p5_service): queue
#                   submit -> merged latency (cold) vs the fingerprint-
#                   memoized result-cache query (hot), plus the status probe.
#
# Usage: bench/run_bench.sh [build-dir] [p1-json] [p2-json] [p3-json]
#        [p4-json] [p5-json]
#
# Failure contract: every child failure is fatal — a broken build, a bench
# binary that crashes or is killed, or a run that emits missing/empty/
# unparseable JSON all exit nonzero.  No `|| true`, no output swallowing:
# a green run means five validated result files exist.
set -euo pipefail

trap 'echo "run_bench.sh: FAILED at line $LINENO (exit $?)" >&2' ERR

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
out_json="${2:-$repo_root/BENCH_p1.json}"
out_json_p2="${3:-$repo_root/BENCH_p2.json}"
out_json_p3="${4:-$repo_root/BENCH_p3.json}"
out_json_p4="${5:-$repo_root/BENCH_p4.json}"
out_json_p5="${6:-$repo_root/BENCH_p5.json}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
      -DRELDIV_BUILD_TESTS=OFF -DRELDIV_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$build_dir" -j --target bench_p1_perf --target bench_runner_scaling \
      --target bench_campaign_scaling --target bench_p4_simd \
      --target bench_p5_service >/dev/null

# Run a bench binary and insist its JSON landed: google-benchmark can exit 0
# in some misconfiguration corners, so an existence check backs up the exit
# status.
run_bench() {
  local binary="$1" out="$2"
  rm -f "$out"
  "$binary" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2
  [[ -s "$out" ]] || { echo "run_bench.sh: $binary produced no JSON at $out" >&2; exit 1; }
}

# Every file records each row's median of three runs, the statistic the
# committed baselines hold: on a shared multi-core host one run of a
# multi-threaded row can move a gated ratio past its bound whatever the code.
# Each round runs all five binaries in turn, so a slow spell on the host
# lands in one round rather than in all three runs of one binary.
binaries=(bench_p1_perf bench_runner_scaling bench_campaign_scaling bench_p4_simd
          bench_p5_service)
outs=("$out_json" "$out_json_p2" "$out_json_p3" "$out_json_p4" "$out_json_p5")
for round in 1 2 3; do
  for i in "${!binaries[@]}"; do
    run_bench "$build_dir/${binaries[$i]}" "${outs[$i]}.round$round"
    echo
  done
done

# Per row (benchmark name), keep the round whose real_time is the median, so
# the row stays one whole measurement with its own cpu_time and counters.
for out in "${outs[@]}"; do
  python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
rounds = []
for r in (1, 2, 3):
    with open(f"{out}.round{r}") as f:
        rounds.append(json.load(f))
runs = {}
for data in rounds:
    for bench in data.get("benchmarks", []):
        runs.setdefault(bench["name"], []).append(bench)
median = []
for bench in rounds[0].get("benchmarks", []):
    row = runs[bench["name"]]
    if len(row) != 3:
        sys.exit(f"run_bench.sh: {bench['name']} ran {len(row)} times for {out}, not 3")
    median.append(sorted(row, key=lambda b: b.get("real_time", 0.0))[1])
merged = dict(rounds[0])
merged["benchmarks"] = median
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY
  rm -f "$out.round1" "$out.round2" "$out.round3"
done

echo
echo "Wrote $out_json"
echo "Wrote $out_json_p2"
echo "Wrote $out_json_p3"
echo "Wrote $out_json_p4"
echo "Wrote $out_json_p5"
# Validate + summarize: the summary doubles as the JSON sanity gate, and its
# failure fails the script (it used to be `|| true`-swallowed, so a bench
# emitting garbage still yielded a green step).
python3 - "$out_json" "$out_json_p2" "$out_json_p3" "$out_json_p4" "$out_json_p5" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        data = json.load(f)
    benches = data.get("benchmarks", [])
    if not benches:
        sys.exit(f"run_bench.sh: {path} holds no benchmark entries")
    return {b["name"]: b["real_time"] for b in benches if "real_time" in b}

def ratio_line(times, label, base, fast, base_name, fast_name, unit="ms", fmt=".2f"):
    """Print `label: base_name X -> fast_name Y (speedup)` when both rows exist."""
    b, f = times.get(base), times.get(fast)
    if b and f:
        print(f"{label}: {base_name} {b:{fmt}}{unit} -> {fast_name} {f:{fmt}}{unit} "
              f"({b / f:.2f}x)")

times = load(sys.argv[1])
ratio_line(times, "run_experiment random n=1024", "BM_RunExperimentExact/real_time",
           "BM_RunExperimentFastSimd/real_time", "exact", "fast-simd")
ratio_line(times, "run_experiment uniform p = 0.5 n=1024",
           "BM_RunExperimentExactUniformP/real_time",
           "BM_RunExperimentFastSimdUniformP/real_time", "exact", "fast-simd")
ratio_line(times, "sample_version n=1024", "BM_SampleVersion/1024",
           "BM_SampleVersionMaskExact/1024", "sparse", "exact mask", unit="ns", fmt=".0f")

p2 = load(sys.argv[2])
# "/0" = hardware threads.
ratio_line(p2, "run_correlated n=256", "BM_RunCorrelatedSharded/1/real_time",
           "BM_RunCorrelatedSharded/0/real_time", "1 thread", "sharded(hw)")

p3 = load(sys.argv[3])
ratio_line(p3, "KL empirical scoring (378 targets x 1M demands)",
           "BM_KLScoreSerialBaseline/real_time", "BM_KLScoreCampaign/0/real_time", "serial",
           "campaign(hw)")
ratio_line(p3, "shuffled 4x64 universe (p-sorted relayout)",
           "BM_RunExperimentExactShuffled/real_time", "BM_RunExperimentShuffled/real_time",
           "exact", "fast-simd")

p4 = load(sys.argv[4])
ratio_line(p4, "heterogeneous n=1024", "BM_RunExperimentExactHetero/real_time",
           "BM_RunExperimentFastSimdHetero/real_time", "exact", "fast-simd")
ratio_line(p4, "heterogeneous n=1024, scalar cap", "BM_RunExperimentExactScalarHetero/real_time",
           "BM_RunExperimentFastSimdScalarHetero/real_time", "exact", "fast-simd")
ratio_line(p4, "random n=1024", "BM_RunExperimentExactRandom/real_time",
           "BM_RunExperimentFastSimdRandom/real_time", "exact", "fast-simd")
ratio_line(p4, "random n=1024, avx2 cap", "BM_RunExperimentExactRandomAvx2/real_time",
           "BM_RunExperimentFastSimdRandomAvx2/real_time", "exact", "fast-simd")
ratio_line(p4, "scenario_ci mixture cell (256 faults, 1e6 pairs)",
           "BM_ScenarioMixtureCellScalar/real_time", "BM_ScenarioMixtureCellLanes/real_time",
           "scalar level", "xoshiro lanes", fmt=".0f")
ratio_line(p4, "scenario_ci mixture cell", "BM_ScenarioMixtureCellScalar/real_time",
           "BM_ScenarioMixtureCellAvx2/real_time", "scalar level", "avx2 cap", fmt=".0f")
# Dispatched vs avx2 cap: the AVX-512 kernels' own gain (1x on an AVX2 host).
ratio_line(p4, "fast-simd random n=1024", "BM_RunExperimentFastSimdRandomAvx2/real_time",
           "BM_RunExperimentFastSimdRandom/real_time", "avx2 cap", "dispatched")
ratio_line(p4, "scenario_ci mixture cell", "BM_ScenarioMixtureCellAvx2/real_time",
           "BM_ScenarioMixtureCellLanes/real_time", "avx2 cap", "dispatched", fmt=".0f")
# The cell's xoshiro pair step and fast-simd's counter pair step: an
# iteration is 1000 pairs, so microseconds read as ns per pair.
for layer, row in (("xoshiro pair step", "BM_XoshiroPairStep"),
                   ("counter pair step", "BM_CounterPairStep")):
    ratio_line(p4, f"{layer} (ns per pair)", f"{row}Scalar/real_time", f"{row}/real_time",
               "scalar level", "dispatched", unit="", fmt=".1f")
    ratio_line(p4, f"{layer} (ns per pair)", f"{row}Avx2/real_time", f"{row}/real_time",
               "avx2 cap", "dispatched", unit="", fmt=".1f")

p5 = load(sys.argv[5])
cold = p5.get("BM_ServiceSubmitToMerged/real_time")
hot = p5.get("BM_ServiceMemoizedQuery/real_time")
if cold and hot:
    print(f"service query: cold submit->merged {cold:.2f}ms -> memoized {hot:.4f}ms "
          f"({cold / hot:.0f}x)")
EOF
