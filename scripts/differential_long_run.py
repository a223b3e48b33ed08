#!/usr/bin/env python3
"""Judge loglik_jet against its oracles on many random models.

Usage: PYTHONPATH=src python scripts/differential_long_run.py [--models 1000] [--seed 0]

Draws the model strategy of tests/test_differential.py (a model of the
TruncatedNonlinearModel family, a parameter inside its box and a few
observations along one path) and runs that test's oracle comparison on
each model: slot 0 against the path-sum log-likelihood and every
derivative slot against finite differences of slot 0.  Prints, per model
order and variant, the worst slot-0 gap, the worst scaled FD gap of each
derivative order, how many models exceed the test's bounds, and the
aborts by class.  Exits 1 if a model exceeds a bound or aborts.
"""
import argparse
import collections
import pathlib
import re
import sys
import time

from hypothesis import HealthCheck, Phase, given, seed, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_differential import FD_TOL, SLOT0_TOL, cases, oracle_gaps  # noqa: E402


def abort_class(err: Exception) -> str:
    """The exception type and its message, numbers and the located suffix dropped."""
    message = re.sub(r"[-+]?\d[\d.e+-]*", "#", str(err).split(" at ")[0])
    return f"{type(err).__name__}: {message}"


def run(models: int, draw_seed: int) -> list[dict]:
    rows = []

    @seed(draw_seed)
    @settings(
        max_examples=models, deadline=None, database=None, phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(case=cases())
    def judge(case):
        model, theta, ys = case
        row = {"order": model.max_order, "variant": "compact" if model.compact_observations else "gaussian"}
        try:
            row["slot0"], row["fd"] = oracle_gaps(model, theta, ys)
        except (ArithmeticError, ValueError) as err:
            row["abort"] = abort_class(err)
        rows.append(row)

    judge()
    return rows


def table(rows: list[dict]) -> list[str]:
    groups = collections.defaultdict(list)
    for row in rows:
        groups[row["order"], row["variant"]].append(row)
    lines = [
        "| order | variant | models | ran | worst slot-0 gap | worst FD gap (order 1 / 2 / 3) | over a bound | aborts |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for (order, variant), group in sorted(groups.items()):
        ran = [row for row in group if "abort" not in row]
        slot0 = max((row["slot0"] for row in ran), default=0.0)
        fd = [max((row["fd"][k] for row in ran if k in row["fd"]), default=None) for k in (1, 2, 3)]
        over = sum(row["slot0"] > SLOT0_TOL or any(v > FD_TOL[k] for k, v in row["fd"].items()) for row in ran)
        aborts = collections.Counter(row["abort"] for row in group if "abort" in row)
        fd_text = " / ".join("-" if v is None else f"{v:.1e}" for v in fd)
        abort_text = "; ".join(f"{n} {name}" for name, n in aborts.most_common()) or "none"
        lines.append(f"| {order} | {variant} | {len(group)} | {len(ran)} | {slot0:.1e} | {fd_text} | {over} | {abort_text} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    started = time.time()
    rows = run(args.models, args.seed)
    print("\n".join(table(rows)))
    bad = sum(
        "abort" in row or row["slot0"] > SLOT0_TOL or any(v > FD_TOL[k] for k, v in row["fd"].items())
        for row in rows
    )
    print(f"{len(rows)} models at seed {args.seed} in {time.time() - started:.0f} s; {bad} over a bound or aborted")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
