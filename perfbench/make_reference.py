"""Write perfbench/reference.json: the summary.csv of every benchmark config
for every base seed, as the current checkout produces them.

The committed file was made from the commit that introduced the benchmark;
rerun this only when a change is meant to alter the study results, and say so
in the change. Usage, from the repository root:

    python3 perfbench/make_reference.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (seed table)
from worker import CONFIGS, REFERENCE, workload_configs  # noqa: E402


def main() -> int:
    os.environ.pop("SRE_THREADS", None)
    os.environ.update({k: v for k, v in run.worker_env().items() if k.endswith("_NUM_THREADS")})
    from structreg import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench_work-") as tmp:
        for workload in sorted(p.name for p in CONFIGS.iterdir() if p.is_dir()):
            reference[workload] = {}
            for base_seed in range(run.SEED_TABLE):
                summaries = {}
                for path in workload_configs(workload):
                    out = Path(tmp) / path.stem
                    argv = ["run", "--config", str(path), "--seed", str(base_seed),
                            "--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(argv) != 0:
                            raise SystemExit(f"{workload}/{path.name} failed at seed {base_seed}")
                    summaries[path.name] = (out / "summary.csv").read_text()
                reference[workload][str(base_seed)] = summaries
                print(f"{workload} seed {base_seed} done", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
