"""Snapshot what every README command x fixture of a source tree prints.

    python tools/snapshot_reports.py SRC OUT

Runs each invocation below in a fresh interpreter with the package directory
SRC (a checkout's ``src``) on ``PYTHONPATH``: ``verify``/``dualize`` on every
pair fixture, ``skrp`` on every profile fixture and ``completeness`` on every
completeness fixture, in json and csv format, at the default seed and at
seed 7; ``verify``/``dualize`` on the assembled Kahler chart at 800 samples
(the benchmark's ``kahler-dense`` traffic, 25 chunks of fiber-norm
inversions); then inline-parameter ``--config`` runs of ``skrp`` and
``completeness``, a ``{"fixture": NAME}`` config run by every command, and
one usage error per kind.  ``skrp`` and ``completeness`` write their report
and side CSV with ``--out``.

For each invocation OUT/<id>/ holds ``exit``, ``stdout``, ``stderr`` and any
report or side-CSV file; OUT/manifest.json maps every id to the SHA-256 of
each of those.  The last line printed is the SHA-256 of the manifest: two
trees behave the same on this set exactly when it matches, and
``diff -r OUT1 OUT2`` shows where they do not.  Paths are relative to OUT, so
the outputs do not depend on where OUT is.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

PAIRS = (
    "gaussian-soliton",
    "gaussian-soliton-n3",
    "gaussian-soliton-n4",
    "gaussian-soliton-n5",
    "sphere-trivial",
    "non-soliton-cubic",
    "koiso-m2-A1B0",
    "koiso-m2-A1B0-flatbase",
    "koiso-m3-A1B0",
    "koiso-m2-ball",
)
PROFILES = (
    "koiso-m2-A1B0",
    "koiso-m2-A1B0-flatbase",
    "koiso-m3-A1B0",
    "koiso-m2-ball",
    "koiso-m2-compact",
    "koiso-m2-tail",
    "koiso-m2-capped",
    "negative-branch",
)
COMPLETENESS = ("synthetic-simple-caps", "synthetic-double-zero") + PROFILES
SEEDS = (None, "7")

# Inline parameter configs: the profile fixtures spelled out, koiso-m2-compact
# on the default whole-line I (where Q has a regular zero at c), a config that
# leaves every optional key to its default, one that lacks ``m``, three wide
# check bands on which the closed-vs-integrated oracle must still hold,
# four profiles whose fiber-norm map overflows float64, five profiles at
# float64's limits that crashed with a traceback until the checks below, a
# shifted capped profile whose end lies ulps past a zero of Q, four
# profiles with no Q-positive interval or a window whose ell overflows,
# two stiff profile ODEs whose closed-vs-integrated oracle must reach a
# verdict, and one whose oracle overflows.
CONFIGS = {
    "koiso-m2-A1B0": {"m": 2, "kappa": 4.0, "c": 0.0, "A": 1.0, "B": 0.0, "I": [0.5, 2.5],
                      "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "koiso-m2-A1B0-flatbase": {"m": 2, "kappa": 0.0, "c": 0.0, "A": 1.0, "B": 0.0, "I": [0.3, 4.0],
                               "s": 1, "a": 1.0, "p": 1.0, "phi_sign": -1},
    "koiso-m3-A1B0": {"m": 3, "kappa": 6.0, "c": 0.0, "A": 1.0, "B": 0.0, "I": [0.5, 2.5],
                      "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "koiso-m2-ball": {"m": 2, "kappa": -4.0, "c": 0.0, "A": 1.0, "B": 0.0, "I": [0.5, 2.5],
                      "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "koiso-m2-compact": {"m": 2, "kappa": 4.0, "c": 0.0, "A": 1.0, "B": -1.0, "I": [0.0, 6.0],
                         "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "koiso-m2-tail": {"m": 2, "kappa": 4.0, "c": 0.0, "A": -1.0, "B": 1.0, "I": [0.0, "inf"],
                      "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "koiso-m2-capped": {"m": 2, "kappa": 1.0, "c": 0.0, "A": 1.0, "B": -0.01, "I": [0.05, 8.9],
                        "s": 2, "a": 0.5, "p": 0.5, "phi_sign": 1},
    "negative-branch": {"m": 2, "kappa": 1.0, "c": 0.0, "A": 0.0, "B": 1.0, "I": [-9.0, -2.6],
                        "s": 1, "a": 1.0, "p": 1.0, "phi_sign": -1},
    "koiso-m2-compact-whole-line": {"m": 2, "kappa": 4.0, "c": 0.0, "A": 1.0, "B": -1.0,
                                    "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1},
    "defaults": {"m": 2, "A": 1.0, "I": [0.5, 3.0]},
    "lacks-m": {"A": 1.0, "I": [0.5, 3.0]},
    "wide-band-m2": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -2.6], "phi_sign": -1},
    "wide-band-m2-to-0.2": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -0.2], "phi_sign": -1},
    "wide-band-m3": {"m": 3, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -2.6], "phi_sign": -1},
    "ell-overflow-kappa-1e-200": {"m": 2, "kappa": 1e-200, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
    "ell-overflow-kappa-1e-300": {"m": 2, "kappa": 1e-300, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
    "log-ell-overflow-kappa-1e-320": {"m": 2, "kappa": 1e-320, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
    "ell-overflow-huge-a": {"m": 2, "kappa": 3, "c": 1, "B": 0, "a": 1e300, "p": 4, "phi_sign": -1,
                            "I": [-50, -2]},
    # The arc integrand's exp(-f / (m - 1)) overflows below f ~ -709: exit 3.
    "arc-overflow": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": [-900, -800], "phi_sign": -1},
    "arc-overflow-to-minus-inf": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -800], "phi_sign": -1},
    # The arc integrand underflows to 0 where completeness fits its power law
    # (exit 3); skrp's table may hold the 0 on the second (exit 0).
    "integrand-underflow": {"m": 2, "kappa": 4, "A": 1, "I": [800, 900], "phi_sign": 1},
    "integrand-underflow-c-1e7": {"m": 2, "A": 1, "c": 1e7, "I": [1e7, "inf"]},
    # Every probe of skrp's no-Q-positive-interval branch lies within the pole
    # margin 1e-6 (1 + |c|) of c: exit 3, as completeness already ended.
    "probes-in-pole-margin": {"m": 2, "c": 1e7},
    # koiso-m2-capped with c and I shifted by -7.5: the root of phi lands
    # ulps past the zero of Q, so completeness must stop short of that end.
    "koiso-m2-capped-shift-7.5": {"m": 2, "kappa": 1, "c": -7.5, "A": 1, "B": -0.01, "I": [-7.45, 1.4],
                                  "s": 2, "a": 0.5, "p": 0.5, "phi_sign": 1},
    # phi < 0 on all of [21, inf): skrp's probes reach past the finite end
    # 21, not to c + 10, and fail phi-positivity (exit 1).
    "phi-negative-past-far-end": {"m": 2, "kappa": 2.2, "A": 1, "I": [21, "inf"], "phi_sign": -1},
    # phi > 0 but f - c < 0 on I: Q > 0 nowhere, skrp's q-domain is
    # inconclusive (exit 0).
    "q-domain-empty": {"m": 2, "A": 1, "I": [-3, -1]},
    # log ell = integral of a / Q passes exp's range inside the window: exit 3
    # (DomainError).  The id names the roundoff flag (ier = 2) the fiber-norm
    # quadrature ended on while the profile cancelled its own terms.
    "ell-quadrature-roundoff": {"m": 2, "B": -1, "a": 2, "I": [-12.5, -12]},
    # Q = 2 B e^x / x < 0 for every x = f - c < 0, which the profile resolves
    # below the pole only if it never subtracts its terms: skrp's q-domain is
    # inconclusive (exit 0) and completeness finds no Q-positive interval.
    "no-q-interval-below-pole": {"m": 2, "kappa": 0, "c": 1.2572, "A": 0, "B": 1.2121, "I": ["-inf", 1.2572]},
    # kappa = B = 1e10 or 1e300 below the pole c = 10: skrp passes all three
    # profile checks (exit 0); completeness finds both ends interior
    # (inconclusive-at-end, exit 0).
    "stiff-ode-1e10": {"m": 4, "kappa": 1e10, "c": 10, "B": 1e10, "s": 3, "phi_sign": -1, "I": [-100, -0.2]},
    "stiff-ode-1e300": {"m": 4, "kappa": 1e300, "c": 10, "B": 1e300, "s": 3, "phi_sign": -1, "I": [-100, -0.2]},
    # The profile-ODE oracle's Taylor terms overflow at A = 1e300: exit 3
    # with the JSON diagnostic alone on stderr, no numpy warning before it.
    "profile-ode-overflow": {"m": 2, "kappa": 112.3, "c": 1, "A": 1e300, "B": 0.75, "I": [1.1572, 1.1796]},
}
# The {"fixture": NAME} form of a config, which every command reads.
FIXTURE_CONFIG = {"fixture": "koiso-m2-A1B0"}


def invocations():
    """(id, argv, seed) of every invocation, in run order."""
    grid = [(cmd, fx) for fx in PAIRS for cmd in ("verify", "dualize")]
    grid += [("skrp", fx) for fx in PROFILES] + [("completeness", fx) for fx in COMPLETENESS]
    for cmd, fx in grid:
        for fmt in ("json", "csv"):
            for seed in SEEDS:
                yield f"{cmd}-{fx}-{fmt}-seed{seed or 'default'}", [cmd, "--fixture", fx, "--format", fmt], seed
    for cmd in ("verify", "dualize"):
        yield f"{cmd}-koiso-m2-A1B0-json-samples800", [cmd, "--fixture", "koiso-m2-A1B0", "--format", "json",
                                                       "--samples", "800"], None
    for name in CONFIGS:
        for cmd in ("skrp", "completeness"):
            yield f"{cmd}-config-{name}", [cmd, "--config", f"configs/{name}.json"], None
    for cmd in ("verify", "dualize", "skrp", "completeness"):
        yield f"{cmd}-config-fixture", [cmd, "--config", "configs/fixture.json"], None
    # verify and dualize read only fixtures: inline parameters are a usage error.
    yield "verify-config-inline", ["verify", "--config", "configs/defaults.json"], None
    for cmd in ("verify", "skrp", "completeness"):
        yield f"{cmd}-unknown-fixture", [cmd, "--fixture", "no-such-fixture"], None


def run(src: str, out: str, ident: str, argv: list[str], seed: str | None) -> dict:
    """Run one invocation from OUT and record its outputs under OUT/<ident>/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "SOLITON_LAB_SEED"}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if seed is not None:
        env["SOLITON_LAB_SEED"] = seed
    if argv[0] in ("skrp", "completeness"):
        argv = [*argv, "--out", f"{ident}/report"]
    folder = os.path.join(out, ident)
    os.makedirs(folder)
    proc = subprocess.run([sys.executable, "-m", "soliton_lab.cli", *argv],
                          cwd=out, env=env, capture_output=True, check=False)
    print(ident, proc.returncode, flush=True)
    for name, content in (("exit", str(proc.returncode).encode()), ("stdout", proc.stdout), ("stderr", proc.stderr)):
        with open(os.path.join(folder, name), "wb") as handle:
            handle.write(content)
    hashes = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), "rb") as handle:
            hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src, out = os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2])
    if not os.path.isdir(os.path.join(src, "soliton_lab")):
        print(f"{src} holds no soliton_lab package", file=sys.stderr)
        return 2
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "configs"))
    for name, doc in {**CONFIGS, "fixture": FIXTURE_CONFIG}.items():
        with open(os.path.join(out, "configs", f"{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    manifest = {}
    for ident, argv, seed in invocations():
        manifest[ident] = run(src, out, ident, argv, seed)
    text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        handle.write(text)
    print(hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
