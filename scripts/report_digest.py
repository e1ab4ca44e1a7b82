"""SHA-256 digests of every computed double over a fixed corpus.

A change that claims "every double unchanged" runs this before and after
and quotes both outputs: equal digests mean equal doubles, last bits
included.  It is a script, not a test, so that a change that moves
rounding (which the 40-digit gate of the tests allows) is reported, not
frozen.  One line per group:

    bound-mixed   bound_columns of seeded mixed states, d = 2..16
    bound-pure    bound_columns of seeded pure and maximally entangled states
    sweep         run_sweep of every sweep kind (t, p, q, upsilon; file states)
    threshold     run_threshold: threshold, bracket, margins, evaluations, kappa
    t-range       standard_t_range, d = 2..16

Each group hashes the JSON of its records, whose floats are written by
``repr``, which round-trips every double.

Run:  python scripts/report_digest.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from mumbounds.criteria import bound_columns
from mumbounds.engine import SweepSpec, ThresholdQuery, run_sweep, run_threshold
from mumbounds.mums import standard_t_range
from mumbounds.states import max_entangled, random_density, random_pure, save_state

DIMS = range(2, 17)
WEIGHTS = (1.0, 0.7)


def _ts(d: int) -> np.ndarray:
    """Both ends of the interval at d, their halves and a tiny t."""
    rng = standard_t_range(d)
    return np.array([rng.lower, rng.upper, 0.5 * rng.lower, 0.5 * rng.upper, 1e-3 * rng.upper])


def _pure(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _bounds(states) -> list:
    """One record per (state, weight): the columns of its points."""
    return [
        bound_columns(rho[None], _ts(d), weights=w) for d, rho in states for w in WEIGHTS
    ]


def _files(tmp: Path) -> tuple[Path, Path]:
    """A seeded rank-3 state at d = 4 and a seeded pure state at d = 5, as files."""
    mixed, pure = tmp / "mixed-4.json", tmp / "pure-5.json"
    save_state(random_density(16, rank=3, seed=4), mixed)
    save_state(_pure(random_pure(5, 5, seed=5)), pure)
    return mixed, pure


def _sweeps(mixed: Path, pure: Path) -> list:
    rng3, rng4, rng5 = (standard_t_range(d) for d in (3, 4, 5))
    specs = [
        SweepSpec("t", 0.9 * rng3.lower, 0.9 * rng3.upper, 41, "tiles", fixed={"p": 0.99}),
        SweepSpec("p", 0.0, 1.0, 41, "tiles", fixed={"t": 0.05}),
        SweepSpec("t", 0.9 * rng3.lower, 0.9 * rng3.upper, 41, "horodecki",
                  fixed={"q": 0.995, "upsilon": 0.2}),
        SweepSpec("q", 0.0, 1.0, 41, "horodecki", fixed={"upsilon": 0.4, "t": 0.08}),
        SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki", fixed={"q": 0.995, "t": 0.08}),
        SweepSpec("t", 0.9 * rng4.lower, 0.9 * rng4.upper, 21, "file", file=str(mixed)),
        SweepSpec("p", 0.0, 1.0, 21, "file", fixed={"t": 0.5 * rng4.upper}, file=str(mixed)),
        SweepSpec("t", 0.9 * rng5.lower, 0.9 * rng5.upper, 21, "file", file=str(pure)),
        SweepSpec("p", 0.0, 1.0, 21, "file", fixed={"t": 0.5 * rng5.lower}, file=str(pure)),
    ]
    return [run_sweep(spec) for spec in specs]


def _thresholds(mixed: Path, pure: Path) -> list:
    queries = [ThresholdQuery("tiles", t, "p") for t in (0.05, 0.01, -0.05)]
    queries += [
        ThresholdQuery("horodecki", 0.01, "q", tolerance=1e-7, fixed={"upsilon": u})
        for u in (0.2, 0.4, 0.6, 0.8, 0.9)
    ]
    queries += [
        ThresholdQuery("file", t, "p", file=str(path))
        for path, d in ((mixed, 4), (pure, 5))
        for t in (0.5 * standard_t_range(d).lower, 0.9 * standard_t_range(d).upper)
    ]
    records = []
    for query in queries:
        result, fam = run_threshold(query)
        records.append([result.found, result.threshold, list(result.bracket),
                        list(result.margins), result.evaluations, fam.kappa])
    return records


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def main() -> None:
    mixed = [(d, random_density(d * d, rank=3, seed=d)) for d in DIMS]
    pure = [(d, _pure(random_pure(d, d, seed=100 + d))) for d in DIMS]
    pure += [(d, _pure(max_entangled(d))) for d in DIMS]
    with tempfile.TemporaryDirectory() as tmp:
        files = _files(Path(tmp))
        groups = {
            "bound-mixed": _bounds(mixed),
            "bound-pure": _bounds(pure),
            "sweep": _sweeps(*files),
            "threshold": _thresholds(*files),
            "t-range": [[standard_t_range(d).lower, standard_t_range(d).upper] for d in DIMS],
        }
    for name, records in groups.items():
        print(f"{name:<12} {_digest(records)}  ({len(records)} records)")


if __name__ == "__main__":
    main()
