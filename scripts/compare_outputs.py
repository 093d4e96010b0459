"""Byte-compare every CLI output of this checkout against a git ref.

    python scripts/compare_outputs.py <git-ref>

Exports ``src`` of <git-ref> with ``git archive`` into a temporary
directory, then runs one fixed matrix of CLI commands at seeds 1, 7 and
21 on that tree and on this checkout (its working tree, uncommitted
changes included), each with its own ``src`` and under
``-W error::RuntimeWarning``, so a numeric warning (overflow, invalid
value, division by zero) fails its command and shows as an exit code
that differs or a command that exits 1.  A command of this checkout
that exits 1 fails the comparison even where the ref's exits 1 too:
exit 1 is no documented code, only an uncaught exception or such a
warning.  The matrix (``PLAIN`` and ``CONFIGS``, each case declared
once; a ``simulate`` goes on to ``analyze`` its run, which exits 4 where
``simulate`` wrote none):

- ``model-curve --step 0.05``, which takes no seed
- ``model-curve`` at alpha = 1e-300 and h_v = 1e-300 G, whose
  delta_v = alpha*h_v**2 underflows to 0, below its 1e-9 mK floor, which
  exits 2 naming both; it once wrote a NaN cavity slope in every row
  without a warning, so the warning flag alone did not catch it
- ``model-curve`` at alpha = 1e-300 and h_v = 3e-12 G, whose
  delta_v = 1e-323 lies below that floor, which exits 2 naming both; the
  cavity slope was once 0/0 in every row, again without a warning, and
  then its limit 0
- ``model-curve`` at alpha = 1 and h_v = 1e154 G, whose finite
  delta_v = 1e308 lies past 1000*t_c mK, which exits 2 naming both; it
  once wrote a NaN cavity depression in 250 of 251 rows without a warning
- ``model-curve --min-field 1e160 --max-field 1e160 --step 1``, whose
  film depression alpha*H**2 overflows, past 1000*t_c mK, which exits 2
  naming the field; it once wrote the row ``1e+160,inf,inf,nan,...``
  (exit 1 under the warning flag)
- ``simulate`` and ``analyze``: plain, without noise (zero resistance
  noise and jitter), with 2 mK of temperature jitter, of a 5-repetition
  plan, of a 4-field plan (which skips the 5-point derivatives with a
  note) and with 1e-7 ohm of resistance noise
- ``simulate`` at Tc = 0.32 K, then ``analyze``: the 0.3 K cryostat
  floor clamps setpoints of every curve, so every fit carries
  ``clamped:i`` flags, and every fit converges
- ``simulate`` at Tc = 0.31 K, then ``analyze``: no curve spans both
  resistance plateaus, so every fit fails, each listed in
  ``failed_fits`` with its curve's flags (exit 5)
- ``simulate`` at alpha = 1e140 with a given ``t_center_guess`` of 1 K,
  whose delta_v lies past 1000*t_c mK, which exits 2 naming alpha and
  h_v; it once exited 2 naming the derived centre of -3.1e141 K, and
  then ran, every fit failing (exit 5)
- ``simulate`` with a temperature jitter of ``true``, which exits 2
  naming the key and writes nothing
- ``simulate`` of the field list ``[1e160]``, past 1000*t_c mK, which
  exits 2 naming the field and writes nothing; it once exited 2 naming
  ``t_center_guess``, a setting the config did not give
- ``simulate`` with a transition width of 1e308 mK, past the 1e6 mK of
  the highest Tc, which exits 2 naming the width and writes nothing; its
  derived ``t_span`` once overflowed, and the refusal named ``t_span``
  alone, a setting the config did not give
- ``simulate`` centred on 1e308 K over a span of 1.5e308 K, past the
  1e3 K of the highest Tc, which exits 2 naming ``t_center_guess``
- ``simulate`` with a transition width of 1e-306 mK over a span of
  0.4 K, below the 1 pK floor, which exits 2 naming the width
- ``simulate`` with a cryostat floor of 1e308 K, past the 1e3 K of the
  highest Tc, which exits 2 naming ``base_temperature``
- ``simulate`` with a temperature jitter of 1e308 mK, past 1e6 mK, which
  exits 2 naming the jitter
  (the erf argument of each of the first three, and the jitter's draw of
  the fourth, once overflowed: exit 1 under the warning flag)
- ``simulate`` with a resistance noise of 1e308 ohm, past the 1e12 ohm
  bound of both resistances, which exits 2 naming ``resistance_noise``;
  its draw once overflowed (exit 1 under the warning flag)
- ``simulate`` with a normal resistance of 1e308 ohm, past that bound,
  which exits 2 naming ``normal_resistance``; it once ran (exit 0)
- ``simulate`` and ``sensitivity --trials 100`` with a normal resistance
  of 1e-300 ohm (and 1e-302 ohm of noise), below the 1e-12 ohm floor,
  which each exit 2 naming ``normal_resistance``; the ``simulate`` once
  ran and its every curve fitted on power-of-two-scaled resistances
  (exit 0), while the study exited 2 blaming the sweep ("does not
  resolve the film transition at 50 G")
- ``sensitivity --trials 200``
- ``sensitivity --trials 200`` on the 4-field plan, whose derivative
  contrast and its sigma are not finite and are written as ``null``
- ``sensitivity --trials 100`` without noise, whose every z the 1 pK
  noise floor sets
- ``sensitivity --trials 100`` at 1e-7 ohm of resistance noise, whose
  mean z is about 2.7e6
- ``sensitivity --trials 100`` at alpha = 1e-300 and h_v = 1e-5 G,
  whose delta_v = 1e-310 lies below its 1e-9 mK floor, which exits 2
  naming both; every ``model_contrast`` was once the limit 1.0
- ``calibrate --trials 200``
- ``calibrate --trials 200 --target 0.5`` with 2 mK of temperature
  jitter, a target above the jitter's noise-free floor of ``delta_n``
- ``calibrate --trials 200`` with 2 mK of temperature jitter, whose
  default 0.1 mK target lies below that floor (exit 6)

It compares the exit code of every command and every file written,
byte for byte, and parses every ``.json`` file this checkout writes as
strict JSON (a ``NaN`` or ``Infinity`` token fails).  For a file that
differs it pairs the values of the two versions: a JSON value by its
key path, a CSV cell by its column header and row, a ``# key=value``
line by its key.  It names each CSV column or JSON key path (list
indices dropped) with values in only one version (a key, a column or a
row added or removed), and for each whose paired values differ it
prints the largest absolute and relative difference between
corresponding numbers, which sizes a numerics change column by column;
a value that is not a number is reported as changed.  Exit status 0:
everything matches, no command of this checkout exits 1 and all JSON
is strict; 1: something differs, a command exits 1 or a file is not
strict JSON, and each such case is listed; 2: the ref could not be
exported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 7, 21)
#: The cases on the default config, by name: each the command's arguments
#: before the seed and output options.
PLAIN = {
    "model-curve": ["model-curve", "--step", "0.05"],
    "model-curve-hugefield": ["model-curve", "--min-field", "1e160", "--max-field", "1e160",
                              "--step", "1"],
    "simulate": ["simulate"],
    "sensitivity": ["sensitivity", "--trials", "200"],
    "calibrate": ["calibrate", "--trials", "200"],
}
#: Each config file, by name, and the cases that read it, each declared by
#: its subcommand (and a label where a config runs one subcommand twice)
#: with the options it adds.  A case is named "<subcommand>-<config>", or
#: "<subcommand>-<config>-<label>" for "<subcommand>/<label>".
CONFIGS = {
    "noiseless": ({"instrument": {"resistance_noise": 0.0, "temperature_jitter": 0.0}},
                  {"simulate": [], "sensitivity": ["--trials", "100"]}),
    "jitter": ({"instrument": {"temperature_jitter": 2.0}},
               {"simulate": [], "calibrate": ["--trials", "200", "--target", "0.5"],
                "calibrate/floor": ["--trials", "200"]}),
    "repetitions": ({"plan": {"repetitions": 5}}, {"simulate": []}),
    "fewfields": ({"plan": {"fields": [50.0, 100.0, 150.0, 200.0]}},
                  {"simulate": [], "sensitivity": ["--trials", "200"]}),
    "tinynoise": ({"instrument": {"resistance_noise": 1e-7}},
                  {"simulate": [], "sensitivity": ["--trials", "100"]}),
    "clamped": ({"model": {"t_c": 0.32}}, {"simulate": []}),
    "floor": ({"model": {"t_c": 0.31}}, {"simulate": []}),
    "underflow": ({"model": {"alpha": 1e-300, "h_v": 1e-5}},
                  {"sensitivity": ["--trials", "100"]}),
    "boolean": ({"instrument": {"temperature_jitter": True}}, {"simulate": []}),
    "zerodeltav": ({"model": {"alpha": 1e-300, "h_v": 1e-300}}, {"model-curve": []}),
    "subnormaldeltav": ({"model": {"alpha": 1e-300, "h_v": 3e-12}}, {"model-curve": []}),
    "hugedeltav": ({"model": {"alpha": 1.0, "h_v": 1e154},
                    "plan": {"fields": [1.0, 2.0, 5.0, 10.0, 20.0],
                             "t_center_guess": 1.0, "t_span": 0.4}},
                   {"model-curve": []}),
    "givencenter": ({"model": {"alpha": 1e140}, "plan": {"t_center_guess": 1.0}},
                    {"simulate": []}),
    "hugefield": ({"plan": {"fields": [1e160]}}, {"simulate": []}),
    "hugewidth": ({"instrument": {"transition_width": 1e308}}, {"simulate": []}),
    "hugecenter": ({"plan": {"t_center_guess": 1e308, "t_span": 1.5e308}},
                   {"simulate": []}),
    "subnormalwidth": ({"instrument": {"transition_width": 1e-306},
                        "plan": {"t_span": 0.4}}, {"simulate": []}),
    "hugefloor": ({"instrument": {"base_temperature": 1e308}}, {"simulate": []}),
    "hugejitter": ({"instrument": {"temperature_jitter": 1e308}}, {"simulate": []}),
    "hugenoise": ({"instrument": {"resistance_noise": 1e308}}, {"simulate": []}),
    "hugeresistance": ({"instrument": {"normal_resistance": 1e308}}, {"simulate": []}),
    "tinyresistance": ({"instrument": {"normal_resistance": 1e-300,
                                       "resistance_noise": 1e-302}},
                       {"simulate": [], "sensitivity": ["--trials", "100"]}),
}


def cases(seed: int) -> dict[str, list[list[str]]]:
    """The commands of each case, run in order in the case's directory:
    its command with the seed (``model-curve`` takes none) and output
    options, and after ``simulate`` an ``analyze`` of its run."""
    def commands(argv: list[str], *config: str) -> list[list[str]]:
        seeded = [] if argv[0] == "model-curve" else ["--seed", str(seed)]
        run = [*argv, *config, *seeded, "--out", "out"]
        return [run, ["analyze", "out/run.json"]] if argv[0] == "simulate" else [run]
    matrix = {name: commands(argv) for name, argv in PLAIN.items()}
    for name, (_, runs) in CONFIGS.items():
        for key, options in runs.items():
            subcommand, _, label = key.partition("/")
            case = "-".join(filter(None, (subcommand, name, label)))
            matrix[case] = commands([subcommand, *options], "--config", f"../../{name}.json")
    return matrix


def run_matrix(src: Path, root: Path) -> dict[str, list[int]]:
    """Run every case with ``src`` first on the import path, under
    root/<seed>/<case>, a numeric warning raised as an error; returns
    the exit codes per case."""
    root.mkdir(parents=True)
    for name, (config, _) in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(src)}
    codes = {}
    for seed in SEEDS:
        for name, commands in cases(seed).items():
            workdir = root / str(seed) / name
            workdir.mkdir(parents=True)
            codes[f"{seed}/{name}"] = [
                subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                                "-m", "cavityshift.cli", *argv],
                               cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL).returncode
                for argv in commands]
    return codes


def exit_differences(ref: str, codes: dict[str, dict[str, list[int]]]) -> list[str]:
    """A line for each case whose exit codes differ between the ref and
    this checkout, and for each in which a command of this checkout
    exits 1; ``codes`` holds the exit codes per case of each side."""
    return ([f"exit codes of {case}: {ref_codes} at {ref}, {codes['checkout'][case]} here"
             for case, ref_codes in codes["ref"].items()
             if ref_codes != codes["checkout"][case]]
            + [f"{case}: a command exits 1 here (an uncaught exception or a "
               "RuntimeWarning); no documented exit code is 1"
               for case, here in codes["checkout"].items() if 1 in here])


def files_under(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def labelled_values(name: str, data: bytes) -> dict[tuple, tuple[str, object]]:
    """Every value of a file, in order, by its address: its label and the
    value.  A label is the column header of a CSV cell (the key of a
    ``# key=value`` line) or the key path of a JSON leaf, list indices
    dropped; an empty list or object is a leaf.  The address pairs the
    values of two versions: a JSON leaf's key path with its list indices,
    a CSV value's label and its count among the values of that label (a
    cell's row).  A CSV value is a float where it parses
    as one; any other file is one unlabelled value."""
    if name.endswith(".json"):
        def leaves(node, path, label):
            if isinstance(node, dict) and node:
                for key, value in node.items():
                    yield from leaves(value, (*path, key),
                                      f"{label}.{key}" if label else key)
            elif isinstance(node, list) and node:
                for index, value in enumerate(node):
                    yield from leaves(value, (*path, index), label)
            else:
                yield path, (label, node)
        return dict(leaves(json.loads(data), (), ""))
    if not name.endswith(".csv"):
        return {(): ("", data)}

    def value(text: str):
        try:
            return float(text)
        except ValueError:
            return text
    values = {}
    seen: Counter[str] = Counter()  # the values of each label so far

    def add(label: str, text: str) -> None:
        values[label, seen[label]] = (label, value(text))
        seen[label] += 1
    header = None
    for line in data.decode().splitlines():
        if line.startswith("# "):
            key, _, text = line[2:].partition("=")
            add(key, text)
        elif header is None:
            header = line.split(",")
        else:
            for j, cell in enumerate(line.split(",")):
                add(header[j] if j < len(header) else f"column {j + 1}", cell)
    return values


def is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def describe_difference(name: str, ref: bytes, here: bytes) -> str:
    """How two versions of a file differ: each label (a CSV column, a
    JSON key path) with values in only one version, and how many; then,
    over the values both versions hold, for each label whose values
    differ, the largest absolute and relative difference between
    corresponding numbers, or that a value that is not a number changed."""
    try:
        ref_values, here_values = labelled_values(name, ref), labelled_values(name, here)
    except ValueError as exc:
        return f"does not parse: {exc}"
    lines = []
    for side, values, other in (("the ref", ref_values, here_values),
                                ("this checkout", here_values, ref_values)):
        unpaired = Counter(label for address, (label, _) in values.items()
                           if address not in other)
        lines += [f"{label or '(file)'}: {count} value(s) only in {side}"
                  for label, count in unpaired.items()]
    sizes: dict[str, tuple[float, float] | None] = {}
    for address, (label, a) in ref_values.items():
        if address not in here_values:
            continue
        b = here_values[address][1]
        if repr(a) == repr(b) or sizes.get(label, ()) is None:
            continue
        if is_number(a) and is_number(b):
            absolute, relative = sizes.get(label, (0.0, 0.0))
            scale = max(abs(a), abs(b))  # 0 only for 0.0 against -0.0
            sizes[label] = (max(absolute, abs(a - b)),
                            max(relative, abs(a - b) / scale if scale else 0.0))
        else:
            sizes[label] = None
    lines += [f"{label or '(file)'}: "
              + ("a value that is not a number changed" if size is None else
                 f"largest absolute {size[0]:.3g}, relative {size[1]:.3g}")
              for label, size in sizes.items()]
    if not lines:
        return "same values, written differently"
    return "values differ:" + "".join(f"\n      {line}" for line in lines)


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
    differences = exit_differences(ref, codes)
    for name in sorted(files["ref"].keys() | files["checkout"].keys()):
        if name not in files["checkout"]:
            differences.append(f"{name}: written only at {ref}")
        elif name not in files["ref"]:
            differences.append(f"{name}: written only here")
        elif files["ref"][name] != files["checkout"][name]:
            differences.append(f"{name}: "
                               + describe_difference(name, files["ref"][name],
                                                     files["checkout"][name]))
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
