"""Experiment E5 — the paper's headline numbers (abstract/conclusion).

"The group directory service allows for 627 lookup operations per
second and 88 update operations per second" (updates measured with
NVRAM; an append-delete pair is two updates, so 44 pairs/s ≈ 88
updates/s).

Since the group-commit change this file is also a SCRIPT: running it
directly regenerates ``BENCH_headline.json`` — the committed
before/after record of the batching work — and can gate on a
committed baseline:

    PYTHONPATH=src python benchmarks/bench_headline.py \
        --out BENCH_headline.json \
        --check-against BENCH_headline.json

The check fails (exit 1) when any field differs from the baseline.
The simulation is deterministic, so any drift is a real code change,
not noise: re-record the file in the change that causes it.
"""

import argparse
import json
import pathlib
import sys

from repro.bench import GROUP_COMMIT, fig7_cell, lookup_throughput, update_throughput

#: The batched writer sweep runs until throughput stops rising (it
#: peaks at 32 writers); batch_max=1 is flat from one writer on.
BATCHED_WRITERS = (1, 8, 16, 32, 48)
UNBATCHED_WRITERS = (1, 8)


def run_headline():
    lookups = lookup_throughput("group", 7, seed=0, measure_ms=8_000.0)
    pairs = update_throughput("nvram", 7, seed=0, measure_ms=15_000.0)
    return lookups, pairs * 2.0


def single_client_latency(**deploy_kwargs):
    """Mean append-delete pair latency (ms) on the group-commit deployment."""
    return fig7_cell(
        "group", "append_delete", iterations=20, seed=0,
        **GROUP_COMMIT, **deploy_kwargs,
    )


def run_group_commit():
    """Before/after record of group-commit batching on the disk-backed
    group service (:data:`~repro.bench.harness.GROUP_COMMIT`, so
    requests can queue)."""

    def pairs_per_s(n, **deploy_kwargs):
        return update_throughput(
            "group", n, seed=0, measure_ms=15_000.0,
            **GROUP_COMMIT, **deploy_kwargs,
        )

    out = {
        "single_client_latency_ms": {
            "batched": single_client_latency(),
            "batch_max_1": single_client_latency(batch_max=1),
        },
        "pairs_per_s": {
            "batched": {str(n): pairs_per_s(n) for n in BATCHED_WRITERS},
            "batch_max_1": {
                str(n): pairs_per_s(n, batch_max=1) for n in UNBATCHED_WRITERS
            },
        },
    }
    out["scaling_x"] = round(
        out["pairs_per_s"]["batched"]["8"] / out["pairs_per_s"]["batched"]["1"], 2
    )
    return out


# ----------------------------------------------------------------------
# pytest entry points (bench suite)
# ----------------------------------------------------------------------

def test_headline_numbers(benchmark, results_dir):
    from conftest import write_result

    lookups, updates = benchmark.pedantic(run_headline, rounds=1, iterations=1)
    write_result(
        results_dir,
        "e5_headline.txt",
        "E5 — headline throughput of the group directory service\n"
        f"  lookups/s (7 clients):        {lookups:6.0f}   (paper: 627)\n"
        f"  updates/s (NVRAM, 7 clients): {updates:6.0f}   (paper: 88)",
    )
    assert 520 <= lookups <= 820
    assert 70 <= updates <= 120


def test_headline_matches_committed_baseline():
    """The committed BENCH_headline.json must describe THIS code."""
    baseline_path = pathlib.Path(__file__).parent.parent / "BENCH_headline.json"
    baseline = json.loads(baseline_path.read_text())
    measured = single_client_latency()
    committed = baseline["group_commit"]["single_client_latency_ms"]["batched"]
    assert measured <= committed * 1.05, (
        f"single-client update latency {measured:.1f} ms regressed >5% "
        f"against committed baseline {committed:.1f} ms"
    )


# ----------------------------------------------------------------------
# script mode (CI bench-smoke job)
# ----------------------------------------------------------------------

def _differences(old, new, path=""):
    """Every leaf where *new* differs from *old*, as (path, old, new)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _differences(
                old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif old != new:
        yield path, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_headline.json")
    parser.add_argument(
        "--check-against", default=None,
        help="baseline JSON every field must equal",
    )
    args = parser.parse_args(argv)

    lookups, updates = run_headline()
    group_commit = run_group_commit()
    result = {
        "schema": 1,
        "headline": {
            "lookups_per_s": round(lookups, 1),
            "paper_lookups_per_s": 627,
            "nvram_updates_per_s": round(updates, 1),
            "paper_updates_per_s": 88,
        },
        "group_commit": {
            k: (
                {ik: (round(iv, 2) if isinstance(iv, float) else iv)
                 for ik, iv in v.items()}
                if isinstance(v, dict) else v
            )
            for k, v in group_commit.items()
        },
    }
    # Round the nested pairs_per_s leaves too.
    for curve in result["group_commit"]["pairs_per_s"].values():
        for k in curve:
            curve[k] = round(curve[k], 2)

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    if args.check_against:
        baseline = json.loads(pathlib.Path(args.check_against).read_text())
        drift = list(_differences(baseline, result))
        for path, old, new in drift:
            print(f"DRIFT {path}: baseline {old!r}, measured {new!r}")
        print(f"{len(drift)} field(s) differ from {args.check_against}")
        if drift:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
