"""Byte-compare every CLI output of this checkout against a git ref.

    python scripts/compare_outputs.py <git-ref>

Exports ``src`` of <git-ref> with ``git archive`` into a temporary
directory, then runs one fixed matrix of CLI commands at seeds 1, 7 and
21 on that tree and on this checkout (its working tree, uncommitted
changes included), each with its own ``src``:

- ``model-curve --step 0.05``
- ``simulate``, then ``analyze`` of its run
- ``simulate`` without noise (zero resistance noise and jitter in the
  config file), then ``analyze``
- ``simulate`` with 2 mK of temperature jitter, then ``analyze``
- ``simulate`` of a 5-repetition plan, then ``analyze``
- ``simulate`` of a 4-field plan, then ``analyze``, which skips the
  5-point derivatives with a note
- ``sensitivity --trials 200``
- ``calibrate --trials 200``

It compares the exit code of every command and every file written,
byte for byte, and parses every ``.json`` file this checkout writes as
strict JSON (a ``NaN`` or ``Infinity`` token fails).  Exit status 0:
everything matches and all JSON is strict; 1: something differs or a
file is not strict JSON, and each such case is listed; 2: the ref could
not be exported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 7, 21)
#: The config file of each case that takes one.
CONFIGS = {
    "noiseless": {"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}},
    "jitter": {"instrument": {"temperature_jitter": 2.0}},
    "repetitions": {"plan": {"repetitions": 5}},
    "fewfields": {"plan": {"fields": [50.0, 100.0, 150.0, 200.0]}},
}


def cases(seed: int) -> dict[str, list[list[str]]]:
    """The commands of each case, run in order in the case's directory."""
    common = ["--seed", str(seed), "--out", "out"]
    analyze = ["analyze", "out/run.json"]
    simulate = {f"simulate-{name}": [["simulate", "--config", f"../../{name}.json",
                                      *common], analyze]
                for name in CONFIGS}
    return {
        "model-curve": [["model-curve", "--step", "0.05", *common]],
        "simulate": [["simulate", *common], analyze],
        **simulate,
        "sensitivity": [["sensitivity", "--trials", "200", *common]],
        "calibrate": [["calibrate", "--trials", "200", *common]],
    }


def run_matrix(src: Path, root: Path) -> dict[str, list[int]]:
    """Run every case with ``src`` first on the import path, under
    root/<seed>/<case>; returns the exit codes per case."""
    root.mkdir(parents=True)
    for name, config in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(src)}
    codes = {}
    for seed in SEEDS:
        for name, commands in cases(seed).items():
            workdir = root / str(seed) / name
            workdir.mkdir(parents=True)
            codes[f"{seed}/{name}"] = [
                subprocess.run([sys.executable, "-m", "cavityshift.cli", *argv],
                               cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL).returncode
                for argv in commands]
    return codes


def files_under(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def strict_json_error(data: bytes) -> str | None:
    """Why ``data`` is not strict JSON (a ``NaN`` or ``Infinity`` token,
    or no JSON at all); None when it is."""
    def reject(token: str):
        raise ValueError(f"non-standard token {token}")
    try:
        json.loads(data, parse_constant=reject)
    except ValueError as exc:
        return str(exc)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare this checkout against")
    ref = parser.parse_args().ref
    archive = subprocess.run(["git", "-C", str(REPO), "archive", ref, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        print(f"could not export {ref}: {archive.stderr.decode().strip()}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive.stdout,
                       check=True)
        codes = {side: run_matrix(src, tmp / "out" / side)
                 for side, src in (("ref", tmp / "ref" / "src"),
                                   ("checkout", REPO / "src"))}
        files = {side: files_under(tmp / "out" / side) for side in codes}
    differences = [f"exit codes of {case}: {codes['ref'][case]} at {ref}, "
                   f"{codes['checkout'][case]} here"
                   for case in codes["ref"] if codes["ref"][case] != codes["checkout"][case]]
    for name in sorted(files["ref"].keys() | files["checkout"].keys()):
        if name not in files["checkout"]:
            differences.append(f"{name}: written only at {ref}")
        elif name not in files["ref"]:
            differences.append(f"{name}: written only here")
        elif files["ref"][name] != files["checkout"][name]:
            differences.append(f"{name}: differs")
    for name, data in files["checkout"].items():
        if name.endswith(".json") and (error := strict_json_error(data)):
            differences.append(f"{name}: not strict JSON here: {error}")
    total = sum(map(len, codes["ref"].values()))
    if differences:
        print(f"{len(differences)} difference(s) against {ref}:")
        print("\n".join(f"  {line}" for line in differences))
        return 1
    print(f"{total} commands, {len(files['ref'])} files: identical to {ref}, "
          "every JSON file strict")
    return 0


if __name__ == "__main__":
    sys.exit(main())
