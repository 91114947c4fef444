#!/usr/bin/env python3
"""Bit identity of fixed-seed runs: the working tree against a git revision.

Usage:

    python tools/same_bits.py HEAD~1

exports the revision with `git archive` into a temporary directory and runs
every job of `jobs()` once in each tree: README's example trained with the
cross-entropy and the sliced-Wasserstein adversary, CI's three-class
`sw3.cfg`, `meed explain` and `meed evaluate` on the example's checkpoint
(the report with its TPS line zeroed, as TPS is a timing), and the first
`BENCH_CYCLES` cycle seeds of each benchmark workload at run seed
`BENCH_SEED`, trained as the benchmark trains them through
`bench/workloads.py`'s `build`, `train_config` and `cycle_seed`. Each step
is a fresh Python process with one BLAS thread and its tree's `src/` and
`bench/` first on the path. Every config comes from the working tree's
README, so both trees run the same inputs.

It prints one line per artefact: `equal` when its bytes are equal on both
sides, else the largest relative difference between the numbers it holds
(a checkpoint's vectors, a text file's numbers). Exit status: 0 when every
artefact is equal, 1 when one differs, 2 when a step fails.

OpenBLAS picks its kernels by CPU, so equal bits are expected between two
trees on one host, not across hosts.
"""

from __future__ import annotations

import io
import os
import re
import struct
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_SEED = 1
BENCH_CYCLES = 2
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

# One step in one tree: `meed <args>` or the benchmark cycles of one workload,
# refusing to run on a meed imported from anywhere but that tree's src/.
WORKER = """
import os, sys
tree, kind, args = sys.argv[1], sys.argv[2], sys.argv[3:]
import meed
if not os.path.abspath(meed.__file__).startswith(os.path.join(tree, "src", "")):
    sys.exit(f"imported meed from {meed.__file__}, not from {tree}")
if kind == "meed":
    from meed.cli import main
    sys.exit(main(args))
import workloads
from meed import data, trainer
w = workloads.WORKLOADS[args[0]]
setup = workloads.build(w, int(args[1]))
for i in range(int(args[2])):
    name = f"cycle-{i}"
    _, _, ckpt = trainer.train(
        data.Dataset(ids=setup.train_ids, X=setup.train_x), setup.model,
        workloads.train_config(w, workloads.cycle_seed(int(args[1]), i)),
        explainer_hidden=w.explainer_hidden, approx_hidden=workloads.APPROX_HIDDEN,
        out_dir=name if w.checkpoints else None)
    trainer.save_checkpoint(ckpt, name + ".bin")
"""


class StepFailed(RuntimeError):
    pass


def readme_config() -> str:
    """The ini block of the working tree's README, as CI extracts it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("```ini\n", 1)[1].split("```", 1)[0]


def with_train_line(config: str, line: str) -> str:
    return config.replace("[train]\n", f"[train]\n{line}\n", 1)


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def three_classes(work: str) -> None:
    """CI's three-class set: every third labelled row of the example's
    dataset takes label 2, and a two-epoch sliced-Wasserstein config on it."""
    rows, lines = 0, []
    with open(os.path.join(work, "out", "demo", "dataset.txt"), encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if not line.startswith("#"):
                rows += 1
                if rows % 3 == 0:
                    line = line.rsplit(",", 1)[0] + ",2"
            lines.append(line + "\n")
    write(os.path.join(work, "three.txt"), "".join(lines))
    write(os.path.join(work, "sw3.cfg"),
          "[data]\nkind = file\npath = three.txt\n[train]\nk = 2\nepochs = 2\n"
          "loss_u = sliced-wasserstein\n[run]\nout_dir = out/sw3\n")


def zero_tps(work: str) -> None:
    path = os.path.join(work, "out", "demo", "report.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    write(path, re.sub(r"(?m)^TPS=.*$", "TPS=0", text))


def readme_job() -> tuple:
    config = readme_config()
    ckpt = ["--checkpoint", "out/demo/checkpoint.bin"]
    return ("readme", {"run.cfg": config,
                       "sw.cfg": with_train_line(config, "loss_u = sliced-wasserstein")},
            [("meed", "synth", "--config", "run.cfg"),
             ("meed", "train", "--config", "run.cfg"),
             ("meed", "train", "--config", "sw.cfg", "--out", "out/sw"),
             three_classes,
             ("meed", "train", "--config", "sw3.cfg"),
             ("meed", "explain", *ckpt, "--data", "out/demo/dataset.txt",
              "--out", "out/demo/explanations.txt"),
             ("meed", "evaluate", "--config", "run.cfg", *ckpt),
             zero_tps],
            ["out/demo/checkpoint.bin", "out/sw/checkpoint.bin", "out/sw3/checkpoint.bin",
             "out/demo/explanations.txt", "out/demo/report.txt"])


def bench_job(workload: str, checkpoints: bool) -> tuple:
    artefacts = []
    for i in range(BENCH_CYCLES):
        artefacts.append(f"cycle-{i}.bin")
        if checkpoints:
            artefacts.append(f"cycle-{i}/checkpoint.bin")
    return (workload, {}, [("cycles", workload, str(BENCH_SEED), str(BENCH_CYCLES))], artefacts)


def jobs() -> list:
    """(name, {file: text}, steps, artefacts): each step is a worker argv or a
    function of the job's directory; artefacts are paths in that directory."""
    import workloads
    return [readme_job(), *(bench_job(w.name, w.checkpoints) for w in workloads.WORKLOADS.values())]


def run_step(tree: str, work: str, step) -> None:
    if callable(step):
        step(work)
        return
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    env.update({var: "1" for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-c", WORKER, tree, *step], cwd=work, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise StepFailed(f"{' '.join(step)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


def run_job(tree: str, work: str, job: tuple) -> None:
    _, files, steps, _ = job
    os.makedirs(work)
    for name, text in files.items():
        write(os.path.join(work, name), text)
    for step in steps:
        run_step(tree, work, step)


def numbers(path: str) -> list:
    """The float arrays a file holds: a record's vectors, else a text's numbers."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == b"MEED":   # a checkpoint or model record: 8-byte magic, u32 version
        from meed.core import read_record
        _, vectors = read_record(path, blob[:8], struct.unpack_from("<I", blob, 8)[0], ValueError)
        return [vectors[name] for name in sorted(vectors)]
    return [np.array([float(t) for t in NUMBER.findall(blob)])]


def difference(a_path: str, b_path: str) -> str:
    """`equal`, or how the artefact at b_path differs from the one at a_path."""
    for path in (a_path, b_path):
        if not os.path.isfile(path):
            return f"missing: {path}"
    with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
        if fa.read() == fb.read():
            return "equal"
    try:
        a, b = numbers(a_path), numbers(b_path)
    except ValueError as exc:
        return f"differs, unreadable: {exc}"
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        return "differs in layout"
    worst = 0.0
    for x, y in zip(a, b):
        with np.errstate(invalid="ignore"):   # 0/0 where both are 0: skipped as NaN
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        worst = max(worst, float(np.nanmax(rel, initial=0.0)))
    if worst == 0.0:
        return "differs, numbers equal"
    return f"largest relative difference {worst:.3g}"


def compare(tree_a: str, tree_b: str, job_list: list, scratch: str) -> list:
    """One line per artefact of every job, run in tree_a and then in tree_b."""
    lines = []
    for job in job_list:
        name, _, _, artefacts = job
        works = [os.path.join(scratch, side, name) for side in ("a", "b")]
        for tree, work in zip((tree_a, tree_b), works):
            run_job(tree, work, job)
        lines += [f"{name}/{art}: {difference(*(os.path.join(w, art) for w in works))}"
                  for art in artefacts]
    return lines


def export(rev: str, dest: str) -> None:
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode != 0:
        raise StepFailed(f"git archive {rev}: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **extra)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python tools/same_bits.py REV", file=sys.stderr)
        return 2
    # The working tree's benchmark lists the workloads; its reader reads records.
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    with tempfile.TemporaryDirectory(prefix="same_bits-") as scratch:
        try:
            rev_tree = os.path.join(scratch, "rev")
            export(args[0], rev_tree)
            print(f"# {args[0]} (a) against the working tree (b)", flush=True)
            lines = compare(rev_tree, ROOT, jobs(), scratch)
        except StepFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("\n".join(lines))
    return 0 if all(line.endswith(": equal") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
