"""Emit the CSV curves behind the benchmark figures.

Two sweeps: the concurrence bound of the noisy tiles state as a function
of the sharpness parameter t (at p = 0.99), and of the noisy Horodecki
family as a function of upsilon (at q = 0.995, t = 0.08).  Output lands
in out/ next to the repository root.

Run:  python scripts/figure_data.py [out_dir]
"""

import sys
from pathlib import Path

from mumbounds.engine import SweepSpec, render_csv, run_sweep
from mumbounds.mums import standard_t_range


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = standard_t_range(3)
    sweeps = {
        "tiles_bound_vs_t.csv": SweepSpec(
            variable="t",
            start=0.9 * rng.lower,
            stop=0.9 * rng.upper,
            steps=81,
            state_family="tiles",
            fixed={"p": 0.99},
        ),
        "horodecki_bound_vs_upsilon.csv": SweepSpec(
            variable="upsilon",
            start=0.0,
            stop=1.0,
            steps=101,
            state_family="horodecki",
            fixed={"q": 0.995, "t": 0.08},
        ),
    }
    for name, spec in sweeps.items():
        rows = run_sweep(spec)
        path = out_dir / name
        path.write_text(render_csv(rows))
        detected = sum(row["verdict"] == "entangled" for row in rows)
        print(f"wrote {path} ({len(rows)} rows, {detected} detected)")


if __name__ == "__main__":
    main()
