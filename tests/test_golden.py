"""Golden default output of the four CLI commands.

Each file under ``tests/golden/`` is the stdout of one command in one output
format on a dim-16 config with every other key at its default; the
``cv-float`` files are ``verify`` on the cv config with ``"backend": "float"``.
Elapsed times are the only run-dependent bytes, and are masked before
comparing.
"""

import contextlib
import hashlib
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


# sha256 of the stdout at the benchmark's sizes, pinned from a Fraction per
# level evaluation: spectrum --dim 4096 --mu both on cv(1/2) and
# gdoa(F = n^3 + 2n, f = n + 1), and reduce --kappa=-3/7 --dim 1024
BENCHMARK_SIZE_SHA256 = {
    ("spectrum", "cv", "json"): "8a81f180d563c72b03febd0c7cdb6eae3150fdddf395a57cfd0f9a4f7c4bb973",
    ("spectrum", "cv", "text"): "c064a703ef314b91dca14688932810e8d981f03bd6e416ee35d1f8335b8e7356",
    ("spectrum", "cv", "csv"): "5b85d372153d6b7f19fc5ee9b3f8c6d1706a2e220338f1b95444081cba145776",
    ("spectrum", "cubic", "json"): "ad9ed26cdbe52ec8bb83034134463b55b6194ab7832686fe533cbe2b276c5bb5",
    ("spectrum", "cubic", "text"): "07391e3274e4a351c197d8f079e6dd336dfa6320269b8422456cb0f74deaa3f8",
    ("spectrum", "cubic", "csv"): "85edee6ea7d3cb3ea97dd1fbf06823b74f13d2460d46815a00b9287a7d820d68",
    ("reduce", "-3/7", "json"): "02ec3ac2f76ed92c3a2f9f4929a9b6a396bd9f95154656454e3b224e19e2765e",
    ("reduce", "-3/7", "text"): "15ab280ad84e84fd88697bfb042a26ccd6ea73cf86060cbefb2588b3fab0b74d",
    ("reduce", "-3/7", "csv"): "d90f4feeed96b869b32a567fc3519d40a7e5bc7c7c31313fc59a62854b99e57f",
}
BENCHMARK_SIZE_CONFIGS = {
    "cv": CONFIGS["cv"]["algebra"],
    "cubic": {"type": "gdoa", "F": "n^3 + 2*n"},
}


@pytest.mark.parametrize("command, case, output", list(BENCHMARK_SIZE_SHA256))
def test_benchmark_size_output_bytes(command, case, output, tmp_path):
    if command == "spectrum":
        path = str(tmp_path / "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"algebra": BENCHMARK_SIZE_CONFIGS[case],
                       **({"f": "n+1"} if case == "cubic" else {})}, handle)
        argv = ["spectrum", "--config", path, "--dim", "4096", "--mu", "both"]
    else:
        argv = ["reduce", f"--kappa={case}", "--dim", "1024"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*argv, "--output", output]) == 0
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    assert digest == BENCHMARK_SIZE_SHA256[command, case, output]
