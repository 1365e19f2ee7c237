"""Run the benchmark smoke, the output digests and tier-1 under several Pythons.

    python3 scripts/check_pythons.py [PYTHON ...]

Each PYTHON is an interpreter path or a command on PATH; with none, the
script takes each of ``python3.10`` to ``python3.13`` that starts. Under
each interpreter it runs ``benchmarks/run.py --seed 1 --seconds 2`` on every
workload of ``BENCHMARK.json``, once with ``--trace 0`` and once with
``--trace 1`` as CI does, and checks that each run's result line reads
``"correct": true``, then runs ``scripts/output_digests.py`` and checks
that every output digest equals the recorded one, then runs the tier-1
tests when ``import pytest, hypothesis`` works there, or works with the
running interpreter's pytest directory on ``PYTHONPATH`` (then named on the
tier-1 line). It prints one line per step, and names each interpreter and
step it skipped, with the reason. It exits 1 when a step failed or no
interpreter started, else 0. The digests take about 12 minutes per
interpreter. Run it from anywhere: it works in the checkout that holds it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PYTHONS = [f"python3.{minor}" for minor in range(10, 14)]
SMOKE_TIMEOUT_S = 300
DIGESTS_TIMEOUT_S = 1800
DIFFERS = "differs from the recorded digest: "
TIER1_TIMEOUT_S = 1800


def _line(text: str, index: int) -> str:
    """The first (0) or last (-1) line of ``text`` that is not blank."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[index] if lines else "no output"


def _run(argv, timeout: float, **kwargs) -> tuple[int | None, str, str, float]:
    """``argv``'s exit code (None on timeout), stdout, stderr and wall time
    in seconds; a program that cannot be started has code 127."""
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        return None, "", "", time.perf_counter() - start
    except OSError as exc:
        return 127, "", str(exc), time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def _version(python: str) -> tuple[str | None, str]:
    """The interpreter's version, or None and why it did not start."""
    code, out, err, _ = _run([python, "-c", "import platform; print(platform.python_version())"], 60)
    if code != 0:
        return None, "does not start: " + ("timed out" if code is None else _line(err, 0))
    return out.strip(), ""


def _smoke(python: str, workload: str, trace: str) -> tuple[bool, str]:
    argv = [python, "benchmarks/run.py", "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace]
    code, out, err, took = _run(argv, SMOKE_TIMEOUT_S)
    if code is None:
        return False, f"timed out after {SMOKE_TIMEOUT_S} s"
    try:
        correct = json.loads(_line(out, -1))["correct"] is True
    except (KeyError, TypeError, ValueError):
        correct = False
    if code == 0 and correct:
        return True, f'"correct": true ({took:.1f} s)'
    return False, f"exit code {code}: {_line(err or out, -1)}"


def _digests(python: str) -> tuple[bool, str]:
    code, out, err, took = _run([python, "scripts/output_digests.py"], DIGESTS_TIMEOUT_S)
    if code is None:
        return False, f"timed out after {DIGESTS_TIMEOUT_S} s"
    differ = [line[len(DIFFERS):] for line in out.splitlines() if line.startswith(DIFFERS)]
    if code == 0:
        return True, f"all {len(json.loads(_line(out, -1)))} equal the recorded ones ({took:.0f} s)"
    if differ:
        return False, f"{len(differ)} differ from the recorded ones: {', '.join(differ)}"
    return False, f"exit code {code}: {_line(err or out, -1)}"


def _with_path(env: dict, directory: str) -> dict:
    """``env`` with ``directory`` first on its ``PYTHONPATH``."""
    return dict(env, PYTHONPATH=os.pathsep.join(p for p in (directory, env.get("PYTHONPATH")) if p))


def _tier1(python: str) -> tuple[bool | None, str]:
    """(passed, summary), or (None, why it was skipped). An interpreter that
    cannot import pytest and hypothesis is tried once more with the running
    interpreter's pytest directory on ``PYTHONPATH``, writing no bytecode
    there, and runs the tests with it if they then import."""
    env, borrowed = dict(os.environ), ""
    probe = [python, "-c", "import pytest, hypothesis"]
    code, _, err, _ = _run(probe, 60, env=env)
    if code != 0:
        why = "cannot import pytest and hypothesis: " + _line(err, -1)
        spec = importlib.util.find_spec("pytest")
        if spec is None or spec.origin is None:
            return None, why
        borrowed = str(Path(spec.origin).parent.parent)
        env = _with_path(dict(env, PYTHONDONTWRITEBYTECODE="1"), borrowed)
        code, _, err, _ = _run(probe, 60, env=env)
        if code != 0:
            return None, f"{why}; nor with {borrowed} on PYTHONPATH: {_line(err, -1)}"
    argv = [python, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    code, out, _, took = _run(argv, TIER1_TIMEOUT_S, env=_with_path(env, "src"))
    if code is None:
        return False, f"timed out after {TIER1_TIMEOUT_S} s"
    using = f", with pytest from {borrowed}" if borrowed else ""
    return code == 0, f"{_line(out, -1)} (exit code {code}, {took:.0f} s{using})"


def main(argv=None) -> int:
    pythons = (sys.argv[1:] if argv is None else argv) or DEFAULT_PYTHONS
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failed = started = 0
    skipped = []
    for python in pythons:
        version, why = _version(python)
        if version is None:
            print(f"{python}: skipped, {why}")
            skipped.append(python)
            continue
        started += 1
        print(f"{python}: Python {version}")
        for workload in workloads:
            for trace in ("0", "1"):
                ok, says = _smoke(python, workload, trace)
                failed += not ok
                print(f"  smoke {workload} --trace {trace}: {'ok' if ok else 'FAILED'}, {says}")
        ok, says = _digests(python)
        failed += not ok
        print(f"  output digests: {'ok' if ok else 'FAILED'}, {says}")
        ok, says = _tier1(python)
        if ok is None:
            print(f"  tier-1: skipped, {says}")
            skipped.append(f"tier-1 under {python}")
        else:
            failed += not ok
            print(f"  tier-1: {'ok' if ok else 'FAILED'}, {says}")
    print(f"{started} of {len(pythons)} interpreters started; {failed} steps failed; "
          f"skipped: {'; '.join(skipped) or 'nothing'}")
    return 1 if failed or not started else 0


if __name__ == "__main__":
    raise SystemExit(main())
