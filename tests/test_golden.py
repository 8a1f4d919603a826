"""Golden default output of the four CLI commands.

Each file under ``tests/golden/`` is the stdout of one command in one output
format on a dim-16 config with every other key at its default; the
``cv-float`` files are ``verify`` on the cv config with ``"backend": "float"``.
Elapsed times are the only run-dependent bytes, and are masked before
comparing.
"""

import contextlib
import io
import json
import os
import re

import pytest

from gdoa_susy import cli, realizations

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CONFIGS = {
    "cv": {"algebra": {"type": "calogero_vasiliev", "kappa": "1/2"}, "dim": 16},
    "gdoa": {"algebra": {"type": "gdoa", "F": "n^2"}, "f": "n", "dim": 16},
    "cv-float": {
        "algebra": {"type": "calogero_vasiliev", "kappa": "1/2"}, "dim": 16, "backend": "float",
    },
}
SUFFIX = {"text": "txt", "json": "json", "csv": "csv"}
# reduce reads kappa from a calogero_vasiliev config only
CASES = [
    (command, family, output)
    for command in ("verify", "jacobi", "spectrum", "reduce")
    for family in ("cv", "gdoa")
    for output in SUFFIX
    if command != "reduce" or family == "cv"
]
CASES += [("verify", "cv-float", output) for output in SUFFIX]


def mask_elapsed(text: str) -> str:
    text = re.sub(r'("elapsed_ms": )[-+.e0-9]+', r"\1<elapsed>", text)
    return re.sub(r"checks, [0-9.]+ ms\)", "checks, <elapsed> ms)", text)


def render(command: str, family: str, output: str, directory: str, *flags: str) -> str:
    path = os.path.join(directory, f"{family}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(CONFIGS[family], handle)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, "--config", path, "--output", output, *flags])
    assert code == 0
    return mask_elapsed(stdout.getvalue())


def golden_path(command: str, family: str, output: str) -> str:
    return os.path.join(GOLDEN, f"{command}-{family}.{SUFFIX[output]}")


@pytest.mark.parametrize("command, family, output", CASES)
def test_default_output_matches_golden(command, family, output, tmp_path):
    with open(golden_path(command, family, output), encoding="utf-8") as handle:
        expected = handle.read()
    assert render(command, family, output, str(tmp_path)) == expected


def golden_reduce_for_mu(output: str, mu: str) -> str:
    """The golden reduce output with only the entries of the parities mu selects."""
    with open(golden_path("reduce", "cv", output), encoding="utf-8") as handle:
        text = handle.read()
    if mu == "both":
        return text
    if output == "json":
        payload = json.loads(text)
        payload["entries"] = [e for e in payload["entries"] if e["mu"] == int(mu)]
        return json.dumps(payload, indent=2) + "\n"
    lines = text.splitlines(keepends=True)
    if output == "text":
        return "".join(line for line in lines if " mu=" not in line or f" mu={mu} " in line)
    return "".join(line for line in lines if line.startswith(("mu,", f"{mu},")))


@pytest.mark.parametrize("output", SUFFIX)
@pytest.mark.parametrize("mu, builds", [("0", [0]), ("1", [1]), ("both", [0, 1])])
def test_reduce_builds_only_the_printed_parities(mu, builds, output, tmp_path, monkeypatch):
    built = []
    original = realizations.gdoa_realization

    def counting(spec, parity, dim, backend):
        built.append(parity)
        return original(spec, parity, dim, backend)

    monkeypatch.setattr(realizations, "gdoa_realization", counting)
    printed = render("reduce", "cv", output, str(tmp_path), "--mu", mu)
    assert built == builds
    assert printed == golden_reduce_for_mu(output, mu)
