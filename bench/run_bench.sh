#!/usr/bin/env bash
# Reproducible perf pipeline: build Release, run the perf microbenchmarks,
# and record google-benchmark JSON so the perf trajectory is tracked across
# PRs:
#   BENCH_p1.json — kernel + end-to-end engine comparison (bench_p1_perf;
#                   BM_RunExperimentExact is the bit-exact reference engine,
#                   BM_RunExperimentFast the shipping one, BM_SampleVersion
#                   the sparse sampler the mask kernels replaced).
#   BENCH_p2.json — deterministic sharded-runner throughput across worker
#                   counts (bench_runner_scaling; one thread is the
#                   baseline).
#   BENCH_p3.json — unified campaign layer (bench_campaign_scaling): KL
#                   empirical scoring serial baseline vs the multithreaded
#                   demand campaign, grouped-universe sampling vs the paired
#                   kernel, and scenario-grid cell throughput.
#   BENCH_p4.json — SIMD kernels (bench_p4_simd): the fast-simd engine
#                   (counter generation + p-sorted relayout + runtime SIMD
#                   dispatch) vs the fast engine on heterogeneous and random
#                   n=1024 universes, scenario_ci's 256-fault mixture
#                   cell with the xoshiro lane kernel vs its scalar level,
#                   and both SIMD families dispatched vs capped at AVX2.
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
# a green run means three validated result files exist.
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

run_bench "$build_dir/bench_p1_perf" "$out_json"
echo
run_bench "$build_dir/bench_runner_scaling" "$out_json_p2"
echo
run_bench "$build_dir/bench_campaign_scaling" "$out_json_p3"
echo
run_bench "$build_dir/bench_p4_simd" "$out_json_p4"
echo
run_bench "$build_dir/bench_p5_service" "$out_json_p5"

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

times = load(sys.argv[1])
exact = times.get("BM_RunExperimentExact/real_time")
fast = times.get("BM_RunExperimentFast/real_time")
if exact and fast:
    print(f"run_experiment n=1024: exact {exact:.2f}ms -> fast {fast:.2f}ms "
          f"({exact / fast:.2f}x)")
sparse = times.get("BM_SampleVersion/1024")
mask = times.get("BM_SampleVersionMaskExact/1024")
if sparse and mask:
    print(f"sample_version n=1024: sparse {sparse:.0f}ns -> exact mask {mask:.0f}ns "
          f"({sparse / mask:.2f}x)")

p2 = load(sys.argv[2])
one = p2.get("BM_RunCorrelatedSharded/1/real_time")
sharded = p2.get("BM_RunCorrelatedSharded/0/real_time")  # 0 = hardware threads
if one and sharded:
    print(f"run_correlated n=256: 1 thread {one:.2f}ms -> sharded(hw) {sharded:.2f}ms "
          f"({one / sharded:.2f}x)")

p3 = load(sys.argv[3])
kl_serial = p3.get("BM_KLScoreSerialBaseline/real_time")
kl_campaign = p3.get("BM_KLScoreCampaign/0/real_time")  # 0 = hardware threads
if kl_serial and kl_campaign:
    print(f"KL empirical scoring (378 targets x 1M demands): serial {kl_serial:.2f}ms "
          f"-> campaign(hw) {kl_campaign:.2f}ms ({kl_serial / kl_campaign:.2f}x)")
grouped = p3.get("BM_RunExperimentGrouped/real_time")
paired = p3.get("BM_RunExperimentPairedShuffled/real_time")
if grouped and paired:
    print(f"grouped-universe sampling n=256: paired {paired:.2f}ms -> "
          f"bit-slice {grouped:.2f}ms ({paired / grouped:.2f}x)")

p4 = load(sys.argv[4])
hetero_fast = p4.get("BM_RunExperimentFastHetero/real_time")
hetero_simd = p4.get("BM_RunExperimentFastSimdHetero/real_time")
hetero_scalar = p4.get("BM_RunExperimentFastSimdScalarHetero/real_time")
if hetero_fast and hetero_simd:
    print(f"fast-simd heterogeneous n=1024: fast {hetero_fast:.2f}ms -> "
          f"fast-simd {hetero_simd:.2f}ms ({hetero_fast / hetero_simd:.2f}x)")
if hetero_fast and hetero_scalar:
    print(f"fast-simd scalar-cap heterogeneous n=1024: fast {hetero_fast:.2f}ms -> "
          f"scalar fallback {hetero_scalar:.2f}ms ({hetero_fast / hetero_scalar:.2f}x)")
cell_scalar = p4.get("BM_ScenarioMixtureCellScalar/real_time")
cell_lanes = p4.get("BM_ScenarioMixtureCellLanes/real_time")
if cell_scalar and cell_lanes:
    print(f"scenario_ci mixture cell (256 faults, 1e6 pairs): scalar level "
          f"{cell_scalar:.0f}ms -> xoshiro lanes {cell_lanes:.0f}ms "
          f"({cell_scalar / cell_lanes:.2f}x)")
# The avx2 cap against the in-file baselines: gated on every AVX2+ host.
random_fast = p4.get("BM_RunExperimentFastRandom/real_time")
random_simd = p4.get("BM_RunExperimentFastSimdRandom/real_time")
random_avx2 = p4.get("BM_RunExperimentFastSimdRandomAvx2/real_time")
cell_avx2 = p4.get("BM_ScenarioMixtureCellAvx2/real_time")
if random_fast and random_avx2:
    print(f"fast-simd random n=1024: fast {random_fast:.2f}ms -> avx2 cap "
          f"{random_avx2:.2f}ms ({random_fast / random_avx2:.2f}x)")
if cell_scalar and cell_avx2:
    print(f"scenario_ci mixture cell: scalar level {cell_scalar:.0f}ms -> avx2 cap "
          f"{cell_avx2:.0f}ms ({cell_scalar / cell_avx2:.2f}x)")
# Dispatched vs avx2 cap: the AVX-512 kernels' own gain (1x on an AVX2 host).
if random_simd and random_avx2:
    print(f"fast-simd random n=1024: avx2 cap {random_avx2:.2f}ms -> dispatched "
          f"{random_simd:.2f}ms ({random_avx2 / random_simd:.2f}x)")
if cell_avx2 and cell_lanes:
    print(f"scenario_ci mixture cell: avx2 cap {cell_avx2:.0f}ms -> dispatched "
          f"{cell_lanes:.0f}ms ({cell_avx2 / cell_lanes:.2f}x)")

p5 = load(sys.argv[5])
cold = p5.get("BM_ServiceSubmitToMerged/real_time")
hot = p5.get("BM_ServiceMemoizedQuery/real_time")
if cold and hot:
    print(f"service query: cold submit->merged {cold:.2f}ms -> memoized {hot:.4f}ms "
          f"({cold / hot:.0f}x)")
EOF
