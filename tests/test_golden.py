"""The determinism contract, pinned: seed-0 CLI outputs against recorded digests.

Each case runs one `trish` command in-process at base seed 0 and takes the
sha256 of its stdout (less the `wrote <path>` line, which names a temporary
file) and of its `--out` CSV.  A change that alters any number a user sees
fails here; one that does so on purpose updates the table and says why.
The digests pin one build's floating point (numpy 2.4.6, OpenBLAS 0.3 on
x86-64); another BLAS may round the last bits differently, and numpy does
not promise its generators' streams across versions (NEP 19), so a
failure names the numpy version that recorded the table.  The table must
also hold with numpy's SIMD dispatch capped at the x86-64-v2 baseline,
and with OpenBLAS's Haswell (AVX2) kernels in place of the host's, which
the last test checks in child processes.

To print the digests of the current code, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trish.cli import EXIT_OK, main

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")

# The criterion-10 grids; gamma2 follows gamma1 at the tune command's ratio.
TUNE_CONFIGS = {
    "tune-trish": "method = trish\ntune_gamma1 = 2, 4, 8, 16\ntune_alpha = 0.1, 0.25, 0.5, 1, 2\n",
    "tune-sg": "method = sg\ntune_alpha = 0.1, 0.25, 0.5, 1, 2, 4\n",
}
TUNE_COMMON = (
    f"problem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\n"
    "epochs = 1\nn_seeds = 5\nbase_seed = 0\ntune_batch_size = 5, 10, 20\n"
)
SYNTHETIC = (
    "method = trish\nproblem = nonconvex_pl\ngamma1 = 4.0\ngamma2 = 1.6\n"
    "schedule_a = 1.0\nschedule_b = 4.0\nsigma = 0.3\nmax_iterations = 300\n"
    "dimension = 3\nn_seeds = 4\ncheckpoint_fractions = 0.25, 0.5, 1.0\n"
)

COMMANDS = {
    **{f"verify-{n}": ["verify", "--theorem", str(n), "--seeds", "2000"] for n in range(1, 6)},
    **{name: ["tune", "--config", f"{name}.conf"] for name in TUNE_CONFIGS},
    "run-logistic-trish": [
        "run", "--dataset", TRAIN, "--test-dataset", TEST, "--method", "trish",
        "--gamma1", "2", "--gamma2", "0.8", "--alpha", "0.5", "--batch", "10",
    ],
    "run-logistic-sg": [
        "run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.25", "--batch", "10",
    ],
    "run-synthetic": ["run", "--config", "synthetic.conf"],
}

# (stdout, --out CSV) sha256 per command, recorded at base seed 0.
RECORDED_WITH = "2.4.6"  # the numpy version that recorded GOLDEN
GOLDEN = {
    "verify-1": (
        "a103b3589059291d28969b37c64781ed72b6a7ab4fa7bf2af1368f7c7162bb73",
        "5cadc819044041b1d0767a3f2e41ca2667efba34de2df5a1b76ba9448f8ab174",
    ),
    "verify-2": (
        "53f16131be5a25ec594070b35f91f85d4db1d4afc4d2f0a3b9a780f7776291bf",
        "7cfea71d8d928d3f7a5be2e339976a62cd5524da08f04a8dd98ed9355894b510",
    ),
    "verify-3": (
        "b6d848a23895c7ced5920e3cdeaa62d95018c3b7e309051a5a069b36e0369fd6",
        "8585510a8382b65a390dc08fd7b1321018eb55076fe18aeab17a1a22fa60a0d4",
    ),
    "verify-4": (
        "065359ccb04a1d61e2f6bec1f959a25c7fe1355e6c1789f54c0338bc4de1223c",
        "2d05be6e7c108db86967353ed69d4f8633f1c778b357530e0f705a658ee51b5d",
    ),
    "verify-5": (
        "04bab2f2c1ffae42f07dd6566221e5f70b6fc706ccfff79584c844938957a4f8",
        "2a331e76c9e13e4a39526eb5beba53d222c1f96d074719783506e36a2cd951df",
    ),
    "run-logistic-sg": (
        "0de57c4a47ec121bc968dc1d9b95f2858f284c87e71e444cdc6be171ef28560e",
        "61137289c817d8ca260f86e2ef71031edf35010754f8637b951ac16e3a5c866a",
    ),
    "run-logistic-trish": (
        "533466833ab5351f8d2ed00e1e5afc30126fc657ffafb2716da878d589caebdd",
        "058e3b78f2cf2666281d143638a4e959434fbbf79576c67ed58be6ebb6ccb84d",
    ),
    "run-synthetic": (
        "942e325f65e4d124301aad240de2dda8609be528ff4d290db69bc7af6d6dce81",
        "c28eb1f29409e1dc8b52315a48dd025b7a9e65b8b1e877b43adc53a69e85ed5d",
    ),
    "tune-sg": (
        "8dbbd09d4d7583a101b630f9e7b1cfdfff607a5a77ff5bd20251d188f91f3856",
        "2b736367613876ef7182992902cdf7c2bb03f6bcc48d3dd3a21ff4310d14bc9c",
    ),
    "tune-trish": (
        "0e695c1a029e5f7d95f94df0256d51b95f5b11cd7569ec69cabf655ba81be2d5",
        "058e3b78f2cf2666281d143638a4e959434fbbf79576c67ed58be6ebb6ccb84d",
    ),
}


def digests(name: str, workdir: Path) -> tuple[str, str]:
    """Run COMMANDS[name] with its config files in workdir; digest its outputs."""
    for conf, text in {**{n: TUNE_COMMON + t for n, t in TUNE_CONFIGS.items()},
                       "synthetic": SYNTHETIC}.items():
        (workdir / f"{conf}.conf").write_text(text, encoding="utf-8")
    out = workdir / f"{name}.csv"
    argv = [str(workdir / a) if a.endswith(".conf") else a for a in COMMANDS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out", str(out)]) == EXIT_OK
    lines = [line for line in stdout.getvalue().splitlines() if line != f"wrote {out}"]
    text = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(text).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_the_recorded_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name], (
        f"digests recorded with numpy {RECORDED_WITH}, checked with numpy {np.__version__}"
    )


def test_every_command_has_a_digest():
    assert sorted(GOLDEN) == sorted(COMMANDS)


def _openblas_core(env) -> str:
    """The core OpenBLAS reports picking in a child run with env ('' if none:
    numpy's BLAS is then not an OpenBLAS built for several cores)."""
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, timeout=60, env={**env, "OPENBLAS_VERBOSE": "2"})
    return next((line.split(":", 1)[1].strip() for line in probe.stderr.splitlines()
                 if line.startswith("Core:")), "")


@pytest.mark.parametrize("capped", [
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["numpy-x86-64-v2", "openblas-haswell"])
def test_digests_hold_with_simd_dispatch_capped(capped):
    """The digest tests above, in a child process whose numpy dispatches no
    kernel past x86-64-v2 (AVX-512 and AVX2 off), or whose OpenBLAS runs its
    Haswell kernels (AVX2, no AVX-512), so a kernel whose bits depend on the
    host's SIMD fails here and not on a reader's machine."""
    env = {**os.environ, **capped}
    if "OPENBLAS_CORETYPE" in capped and _openblas_core(env) != capped["OPENBLAS_CORETYPE"]:
        pytest.skip("numpy's BLAS is not an OpenBLAS that runs its Haswell kernels here")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not simd_dispatch_capped"],
        env=env, cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert f"{len(COMMANDS) + 1} passed" in done.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for key in sorted(COMMANDS):
            stdout, csv = digests(key, Path(work))
            print(f'    "{key}": (\n        "{stdout}",\n        "{csv}",\n    ),')
