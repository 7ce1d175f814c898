#!/usr/bin/env python3
"""Set up (and optionally launch) the full experiment grid.

Writes a sweep config covering n = {2,4,6,8,10} neurons and
t = {1,2,5,10,20,30} timesteps, both loss variants (K = 0 and 1), over a
set of seeds.  The full grid is hours of CPU; by default this only writes
the config and prints the launch command.
"""

import argparse
from pathlib import Path

from spiqgan.cli import main as spiqgan

NEURONS = "2,4,6,8,10"
TIMESTEPS = "1,2,5,10,20,30"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="grid_out")
    parser.add_argument("--steps", type=int, default=2000,
                        help="generator steps per cell")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--run", action="store_true",
                        help="launch the sweep instead of only writing it")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "data.spk"
    code = spiqgan(["surrogate", "--neurons", "10", "--cols", "100000",
                    "--rates", ",".join(str(round(0.05 + 0.02 * i, 3))
                                        for i in range(10)),
                    "--burst-prob", "0.9", "--burst-gain", "2.5",
                    "--seed", "1234", "--out", str(data)])
    if code != 0:
        raise SystemExit(code)

    config = out / "sweep.ini"
    config.write_text(f"""[sweep]
neurons = {NEURONS}
timesteps = {TIMESTEPS}
k_values = 0,1
seeds = {args.seeds}
eval_samples = 8192

[training]
total_gen_steps = {args.steps}
clip_c = 0.2

[paths]
data = {data}
out = {out / 'sweep'}
""")
    print(f"wrote {config}")
    cmd = ["sweep", "--config", str(config), "--jobs", str(args.jobs)]
    if args.run:
        raise SystemExit(spiqgan(cmd))
    print("launch with: OPENBLAS_NUM_THREADS=1 spiqgan " + " ".join(cmd))


if __name__ == "__main__":
    main()
