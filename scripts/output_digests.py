"""Check that the CLI's outputs on the benchmark's inputs match recorded digests.

    python3 scripts/output_digests.py

For each workload of ``BENCHMARK.json`` the script writes the seed-7 inputs
into a temporary directory with ``benchmarks/gen_inputs.py``, then runs
``python -m spandecode.cli`` on them under this interpreter, with
``PYTHONPATH`` set to this checkout's ``src/``. Each workload gets 16
runs: ``decode --algo exact|naive|greedy`` and ``eval``, each with
``--max-span-len`` unset and 32, each over the ``table:`` scorer and over
the stdio reference server. The server is started as the benchmark starts
it, with ``--terminator-ids`` set to the id of ``<extra_id_1>``. Every
command runs from the inputs' directory with relative paths, so no digest
depends on where the checkout or the directory lies.

It prints one line per run: its name, one SHA-256 over the output file,
stdout, stderr and exit code, and its seconds. The last line is the whole
map of names to digests as one JSON object. The script exits 1 when the map
differs from ``scripts/output_digests.json``, naming each run that differs,
or when that file is missing, else 0. To record the digests of a checkout:

    python3 scripts/output_digests.py | tail -n 1 > scripts/output_digests.json

The 48 runs take about 12 minutes, most of them uncapped ``naive`` over
stdio, so the check is not part of CI. Run it when a change touches what
the decoders, the scorers or the CLI compute or write.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "scripts" / "output_digests.json"
SEED = "7"
CAPS = {"uncapped": [], "cap32": ["--max-span-len", "32"]}
COMMANDS = {
    "exact": ["decode", "--algo", "exact"],
    "naive": ["decode", "--algo", "naive"],
    "greedy": ["decode", "--algo", "greedy"],
    "eval": ["eval"],
}
OUTPUT = "out.json"


def _scorers(directory: Path) -> dict[str, str]:
    """The ``--scorer`` spec of each transport over the inputs in ``directory``."""
    pieces = json.loads((directory / "vocab.json").read_text(encoding="utf-8"))["pieces"]
    server = [sys.executable, "-m", "spandecode.remote", "--vocab", "vocab.json", "--table", "table.json",
              "--terminator-ids", str(pieces.index("<extra_id_1>"))]
    return {"table": "table:table.json", "stdio": "stdio:" + shlex.join(server)}


def _digest(directory: Path, argv: list[str], env: dict) -> str:
    """SHA-256 over the output file, stdout, stderr and exit code of ``argv``
    run in ``directory``; each part is prefixed with its length, a missing
    output file with "-"."""
    output = directory / OUTPUT
    output.unlink(missing_ok=True)
    done = subprocess.run(argv, cwd=directory, env=env, capture_output=True)
    written = output.read_bytes() if output.exists() else None
    digest = hashlib.sha256()
    for part in (written, done.stdout, done.stderr, str(done.returncode).encode()):
        digest.update(b"-\n" if part is None else b"%d\n%s" % (len(part), part))
    return digest.hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            directory = Path(tmp) / workload
            subprocess.run([sys.executable, str(ROOT / "benchmarks" / "gen_inputs.py"), workload, SEED,
                            str(directory)], check=True)
            for transport, spec in _scorers(directory).items():
                for command, args in COMMANDS.items():
                    for cap, cap_args in CAPS.items():
                        name = f"{workload}/{command}/{cap}/{transport}"
                        argv = [sys.executable, "-m", "spandecode.cli", "--vocab", "vocab.json", "--scorer", spec,
                                *args, *cap_args, "--input", "dataset.jsonl", "--output", OUTPUT]
                        start = time.perf_counter()
                        digests[name] = _digest(directory, argv, env)
                        print(f"{name} {digests[name]} {time.perf_counter() - start:.1f} s", flush=True)
    if RECORDED.exists():
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
        differ = sorted(n for n in recorded.keys() | digests.keys() if recorded.get(n) != digests.get(n))
    else:
        differ = None
        print(f"no recorded digests in {RECORDED.relative_to(ROOT)}")
    for name in differ or ():
        print(f"differs from the recorded digest: {name}")
    print(json.dumps(digests, sort_keys=True))
    return 0 if differ == [] else 1


if __name__ == "__main__":
    raise SystemExit(main())
