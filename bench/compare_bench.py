#!/usr/bin/env python3
"""Bench-regression gate: diff fresh google-benchmark JSON against the
checked-in BENCH_p*.json baselines and fail on a real throughput regression.

Two kinds of comparison:

* KEY COUNTERS (gate): the speedup ratios of the optimized paths over their
  in-file baselines — the fast-simd engine vs the bit-exact `exact` engine
  on the same universe at the same SIMD cap, sparse vs mask sampling, one
  thread vs all of them for the correlated runner, serial vs campaign KL
  scoring, the SIMD kernels vs their scalar level and their avx2 cap (the
  whole mixture cell, its xoshiro pair step, and fast-simd's counter pair
  step).  A
  single-threaded ratio divides out the machine, so a baseline
  recorded on one host gates a fresh run on another: if the fast path's
  advantage over its own baseline shrank by more than --max-regression
  (default 25%), the optimization regressed and the job FAILS.  Ratios whose
  fast side uses all hardware threads additionally scale with the core
  count, so they gate only when baseline and fresh report the same
  context.num_cpus and inform otherwise.  Ratios whose fast side runs the
  dispatched SIMD kernels depend on the SIMD level the same way, so they
  gate only when both files report the same context.simd_level and inform
  when the levels differ or either file lacks one.  Ratios whose fast side
  runs capped at AVX2 gate whenever both files report at least avx2, so an
  AVX2 runner is still gated against a baseline recorded on an AVX-512
  host.

* ABSOLUTE TIMES (warn): per-benchmark real_time deltas are reported, and
  anything slower than --max-regression is a WARNING — absolute wall time is
  machine-dependent, so it never fails the gate on its own.

Usage:
  compare_bench.py BASELINE.json FRESH.json [BASELINE2.json FRESH2.json ...]
                   [--max-regression 0.25]

Exit codes: 0 ok (possibly with warnings), 1 key-counter regression,
2 usage / unreadable / unparseable input.
"""

import argparse
import json
import sys

# (label, numerator benchmark, denominator benchmark, cpu_sensitive, simd):
# speedup = num / den.  A pair participates only when both names appear in
# both the baseline and the fresh file, so one script serves BENCH_p1/p2/p3
# alike.  cpu_sensitive marks ratios whose denominator uses all hardware
# threads ("/0" variants): those only divide out the machine when baseline
# and fresh ran on the same core count, so across differing core counts they
# inform instead of gate (a 1-CPU baseline would otherwise never catch a
# scaling regression, and a many-core baseline would permanently fail CI).
# simd says which SIMD level the denominator runs at:
#   None         no SIMD kernel, or both sides capped at the scalar level,
#                gates everywhere;
#   "dispatched" the host's dispatched level: an AVX-512 baseline says
#                nothing about a host that dispatches AVX2, so these gate
#                only between equal levels (the "dispatched vs avx2 cap"
#                ratios are the AVX-512 kernels' own gain, 1x on an AVX2
#                host);
#   "avx2"       capped at AVX2: the same kernels on every host that reaches
#                AVX2, so these gate whenever both levels are at least avx2.
KEY_RATIOS = [
    ("run_experiment fast-simd engine vs exact on random n=1024",
     "BM_RunExperimentExact/real_time", "BM_RunExperimentFastSimd/real_time",
     False, "dispatched"),
    ("run_experiment fast-simd engine vs exact on uniform p = 0.5",
     "BM_RunExperimentExactUniformP/real_time",
     "BM_RunExperimentFastSimdUniformP/real_time", False, "dispatched"),
    ("exact mask sampler vs sparse sample_version n=1024",
     "BM_SampleVersion/1024", "BM_SampleVersionMaskExact/1024",
     False, None),
    ("run_correlated sharded(hw) vs one thread",
     "BM_RunCorrelatedSharded/1/real_time", "BM_RunCorrelatedSharded/0/real_time",
     True, None),
    ("KL empirical scoring campaign(hw) vs serial",
     "BM_KLScoreSerialBaseline/real_time", "BM_KLScoreCampaign/0/real_time",
     True, None),
    # Fails if the p-sorted relayout stops gathering the shuffled universe's
    # equal-p faults into sliceable words.
    ("p-sorted relayout: fast-simd vs exact on the shuffled 4x64 universe",
     "BM_RunExperimentExactShuffled/real_time", "BM_RunExperimentShuffled/real_time",
     False, "dispatched"),
    ("fast-simd engine vs exact on heterogeneous n=1024",
     "BM_RunExperimentExactHetero/real_time",
     "BM_RunExperimentFastSimdHetero/real_time", False, "dispatched"),
    ("fast-simd vs exact on heterogeneous n=1024, both at the scalar cap",
     "BM_RunExperimentExactScalarHetero/real_time",
     "BM_RunExperimentFastSimdScalarHetero/real_time", False, None),
    ("fast-simd engine vs exact on random n=1024",
     "BM_RunExperimentExactRandom/real_time",
     "BM_RunExperimentFastSimdRandom/real_time", False, "dispatched"),
    ("fast-simd vs exact on random n=1024, both at the avx2 cap",
     "BM_RunExperimentExactRandomAvx2/real_time",
     "BM_RunExperimentFastSimdRandomAvx2/real_time", False, "avx2"),
    ("scenario mixture cell xoshiro lanes vs scalar level",
     "BM_ScenarioMixtureCellScalar/real_time",
     "BM_ScenarioMixtureCellLanes/real_time", False, "dispatched"),
    ("scenario mixture cell avx2 cap vs scalar level",
     "BM_ScenarioMixtureCellScalar/real_time",
     "BM_ScenarioMixtureCellAvx2/real_time", False, "avx2"),
    ("fast-simd random n=1024 dispatched vs avx2 cap",
     "BM_RunExperimentFastSimdRandomAvx2/real_time",
     "BM_RunExperimentFastSimdRandom/real_time", False, "dispatched"),
    ("scenario mixture cell dispatched vs avx2 cap",
     "BM_ScenarioMixtureCellAvx2/real_time",
     "BM_ScenarioMixtureCellLanes/real_time", False, "dispatched"),
    # Each engine's per-pair work on one lane group: the xoshiro pair step
    # on the mixture cell's universe and rho, and fast-simd's counter pair
    # step on perfbench experiment_rare's universe, each drawing and
    # recording pair steps.
    ("xoshiro pair step dispatched vs scalar",
     "BM_XoshiroPairStepScalar/real_time", "BM_XoshiroPairStep/real_time",
     False, "dispatched"),
    ("counter pair step dispatched vs scalar",
     "BM_CounterPairStepScalar/real_time", "BM_CounterPairStep/real_time", False,
     "dispatched"),
    ("service memoized query vs cold submit->merge",
     "BM_ServiceSubmitToMerged/real_time",
     "BM_ServiceMemoizedQuery/real_time", False, None),
]


def load_times(path):
    """(benchmark name -> real_time, run context)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    benches = data.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        print(f"compare_bench: {path} holds no benchmarks", file=sys.stderr)
        sys.exit(2)
    times = {b["name"]: b["real_time"] for b in benches
             if "real_time" in b and b.get("run_type", "iteration") == "iteration"}
    return times, data.get("context", {})


SIMD_RANK = {"scalar": 0, "avx2": 1, "avx512": 2}


def simd_comparable(simd, base_level, fresh_level):
    """Whether a ratio whose denominator runs at `simd` (a KEY_RATIOS simd
    entry) transfers from a baseline at base_level to a run at fresh_level."""
    if simd is None:
        return True
    if simd == "dispatched":
        return base_level is not None and base_level == fresh_level
    floor = SIMD_RANK[simd]
    return all(SIMD_RANK.get(level, -1) >= floor for level in (base_level, fresh_level))


def gate_key_ratios(base, fresh, base_ctx, fresh_ctx, max_regression):
    """Compare machine-neutral speedup ratios.  Returns list of failures."""
    failures = []
    checked = 0
    base_cpus, fresh_cpus = base_ctx.get("num_cpus"), fresh_ctx.get("num_cpus")
    base_simd, fresh_simd = base_ctx.get("simd_level"), fresh_ctx.get("simd_level")
    same_cpus = base_cpus is not None and base_cpus == fresh_cpus
    for label, num, den, cpu_sensitive, simd in KEY_RATIOS:
        present = [k in base and k in fresh for k in (num, den)]
        if not all(present):
            # A renamed/deleted key benchmark must not silently disable its
            # gate: if either side of the ratio exists anywhere in this file
            # pair, the pair is this ratio's home and the hole is a failure.
            if any(k in base or k in fresh for k in (num, den)):
                print(f"  [key] {label}: MISSING benchmark "
                      f"{num if not present[0] else den} — gate disabled FAIL")
                failures.append(label + " (missing benchmark)")
            continue
        checked += 1
        base_speedup = base[num] / base[den]
        fresh_speedup = fresh[num] / fresh[den]
        change = fresh_speedup / base_speedup - 1.0
        status = "ok"
        if change < -max_regression:
            if cpu_sensitive and not same_cpus:
                status = (f"info only (baseline {base_cpus} cpus vs fresh {fresh_cpus}: "
                          f"hw-thread speedups don't transfer)")
            elif not simd_comparable(simd, base_simd, fresh_simd):
                status = (f"info only (baseline SIMD level {base_simd} vs fresh "
                          f"{fresh_simd}: SIMD speedups don't transfer)")
            else:
                status = "FAIL"
                failures.append(label)
        print(f"  [key] {label}: speedup {base_speedup:.2f}x -> {fresh_speedup:.2f}x "
              f"({change:+.1%}) {status}")
    if checked == 0:
        print("  [key] no key counters present in this file pair")
    return failures


def warn_absolute(base, fresh, max_regression):
    shared = sorted(set(base) & set(fresh))
    warned = 0
    for name in shared:
        if base[name] <= 0:
            continue
        change = fresh[name] / base[name] - 1.0
        if change > max_regression:
            warned += 1
            print(f"  [warn] {name}: real_time {base[name]:.3g} -> {fresh[name]:.3g} "
                  f"({change:+.1%}; absolute time is machine-dependent, not gating)")
    print(f"  {len(shared)} shared benchmarks, {warned} above the "
          f"{max_regression:.0%} absolute-time threshold")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="alternating BASELINE.json FRESH.json pairs")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fractional regression that fails a key counter "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        parser.error("expected alternating BASELINE FRESH pairs")

    failures = []
    for i in range(0, len(args.files), 2):
        baseline_path, fresh_path = args.files[i], args.files[i + 1]
        print(f"{baseline_path} (baseline) vs {fresh_path} (fresh):")
        base, base_ctx = load_times(baseline_path)
        fresh, fresh_ctx = load_times(fresh_path)
        failures += gate_key_ratios(base, fresh, base_ctx, fresh_ctx,
                                    args.max_regression)
        warn_absolute(base, fresh, args.max_regression)
        print()

    if failures:
        print(f"compare_bench: {len(failures)} key counter(s) regressed more than "
              f"{args.max_regression:.0%}:", file=sys.stderr)
        for label in failures:
            print(f"  - {label}", file=sys.stderr)
        sys.exit(1)
    print("compare_bench: key counters within tolerance")


if __name__ == "__main__":
    main()
