"""Paired benchmark runs of a parent commit and the working tree.

    python tools/bench_pairs.py PARENT_REF --workload kp_scan --seeds 5,9973 \
        --pairs 10 --seconds 50 --out BENCH_33.json

Run from anywhere inside the repository.  Both trees are made one way:
each is a git tree unpacked (``git archive``) into a temporary directory.
The parent's is PARENT_REF's; the change's is written from the working
tree through a temporary index, so it holds the tracked files as they
are on disk, less those deleted there, and the untracked files that
.gitignore does not exclude, and the repository's own index is left
untouched.  So neither side runs in the checkout, and both trees are
fresh copies on the same file system; the two are removed at the end.  Each
pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace
0`` once in each tree, one after the other; the side that goes first
alternates from pair to pair, and each pair goes through every seed.
Every run's end-to-end metrics (the ``end_to_end`` names of
BENCHMARK.json) are written to the output file, with each side's median
and quartiles and the number of pairs each side won, over all seeds and
per seed.  A file that already exists keeps its other workloads, so one
file can hold several.  The file is rewritten after every pair, so a run
that is stopped keeps the pairs it finished.  A run that fails (exits
nonzero, or prints no report) stops the whole command, but first the
file gets the runs so far and a ``failure`` entry: the side, seed and
pair, the exit code and the tail of its stderr.  The output ends with one
line per end-to-end metric of the workload, read from that summary: the
gain, the pairs each side won, ``parent_iqr``, ``gain_rule_met`` and
``regression``; first over all seeds, then once per seed, so a claim can
be read on one seed alone.  Each workload's ``host`` says whether
PYTHONDONTWRITEBYTECODE was set, since then every worker's ``setup_s``
includes compiling the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Each metric's median and quartiles per side, and the pairs each side won.

    ``runs`` holds dicts with ``side`` ("parent" or "change"), ``seed``,
    ``pair`` and ``metrics`` (name to value); a pair is the parent run and
    the change run with the same seed and pair index.  ``end_to_end`` holds
    BENCHMARK.json's entries, each with ``name``, ``better`` ("higher" or
    "lower") and ``bound``, a fraction of the parent's median.  A pair
    whose two values are equal is a tie and counts for neither side.
    ``gain`` is the change's median over the parent's, less one, and
    ``parent_iqr`` the distance between the parent's quartiles.

    Two verdicts follow.  ``gain_rule_met`` is true when the change won at
    least 9 of every 10 pairs and its median is better than the parent's by
    more than ``parent_iqr``.  ``regression`` is "beyond_bound" when the
    change's median is worse than the parent's by more than ``bound``,
    else "unresolved" when either side's quartiles lie further apart than
    ``bound`` times its median, so the runs spread too widely to tell, and
    else "none".
    """
    pairs = {}
    for run in runs:
        pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = run["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    out = {"pairs": len(complete)}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side][name] for p in complete] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["change" if sign * (b - a) > 0.0 else "parent"] += 1
        entry = {"better": metric["better"], "wins": wins}
        if complete:
            entry.update({side: _quartiles(values[side]) for side in SIDES})
            parent, change = entry["parent"], entry["change"]
            entry["gain"] = change["median"] / parent["median"] - 1.0
            entry["parent_iqr"] = parent["q3"] - parent["q1"]
            entry["gain_rule_met"] = (
                10 * wins["change"] >= 9 * len(complete)
                and sign * (change["median"] - parent["median"]) > entry["parent_iqr"]
            )
            spread = max((q["q3"] - q["q1"]) / q["median"] for q in (parent, change))
            if -sign * entry["gain"] > metric["bound"]:
                entry["regression"] = "beyond_bound"
            elif spread > metric["bound"]:
                entry["regression"] = "unresolved"
            else:
                entry["regression"] = "none"
        out[name] = entry
    return out


def verdict_lines(workload: str, summary: dict, end_to_end: list) -> list:
    """One line per metric of ``end_to_end`` from ``summary``, as
    :func:`summarize` returns it: the gain, the pairs each side won,
    ``parent_iqr``, ``gain_rule_met`` and ``regression``, or that no pair
    is complete."""
    lines = []
    for metric in end_to_end:
        e = summary[metric["name"]]
        head = f"{workload} {metric['name']}: "
        if "gain" not in e:
            lines.append(head + "no complete pair")
            continue
        lines.append(
            head + f"gain {e['gain']:+.2%}, pairs won change {e['wins']['change']} "
            f"parent {e['wins']['parent']} of {summary['pairs']}, "
            f"parent_iqr {e['parent_iqr']:.4g}, gain_rule_met "
            f"{str(e['gain_rule_met']).lower()}, regression {e['regression']}"
        )
    return lines


def report_lines(workload: str, entry: dict, end_to_end: list) -> list:
    """:func:`verdict_lines` of ``entry["summary"]``, over all seeds, then
    of each seed's summary in ``entry["by_seed"]``, headed "W seed S"."""
    lines = verdict_lines(workload, entry["summary"], end_to_end)
    for seed, summary in entry["by_seed"].items():
        lines += verdict_lines(f"{workload} seed {seed}", summary, end_to_end)
    return lines


def host() -> str:
    """The machine, Python and numpy, and whether PYTHONDONTWRITEBYTECODE
    is set: the workers inherit it, and then each compiles the package
    from source inside its setup_s."""
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"PYTHONDONTWRITEBYTECODE {bytecode}")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(ref: str, where: str) -> None:
    os.makedirs(where)
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", where], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref} exited with {archive.returncode}")


def _working_tree() -> str:
    """A git tree of the working tree: HEAD's files, updated by ``git add
    -A`` in a temporary index, so it holds the tracked files as they are
    on disk, less those deleted there, and the untracked files that
    .gitignore does not exclude.  The repository's own index is not
    touched."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        for args in (["read-tree", "HEAD"], ["add", "-A"]):
            subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                           capture_output=True)
        return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True).stdout.strip()


class RunFailed(RuntimeError):
    """A benchmark run that exited nonzero or printed no report: its exit
    code and the last 500 characters of its stderr."""

    def __init__(self, cmd: str, returncode: int, stderr: str):
        self.returncode, self.stderr = returncode, stderr.strip()[-500:]
        super().__init__(f"{cmd} exited with {returncode}: {self.stderr}")


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{' '.join(cmd)} in {tree}", proc.returncode, proc.stderr)
    return json.loads(lines[-1])


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_ref")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated, e.g. 5,9973")
    ap.add_argument("--pairs", type=int, required=True, help="pairs per seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    names = [m["name"] for m in end_to_end]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})
    entry = {
        "parent": _git("rev-parse", args.parent_ref),
        "change": _git("rev-parse", "HEAD")
        + (" with uncommitted changes" if _git("status", "--porcelain") else ""),
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED "
        f"--seconds {args.seconds:g} --trace 0",
        "seeds": seeds,
        "host": host(),
        "runs": [],
    }
    doc["workloads"][args.workload] = entry
    tmp = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        _unpack(args.parent_ref, trees["parent"])
        _unpack(_working_tree(), trees["change"])
        for pair in range(args.pairs):
            for seed in seeds:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    try:
                        res = _run(trees[side], args.workload, seed, args.seconds)
                    except RunFailed as err:
                        entry["failure"] = {
                            "side": side, "seed": seed, "pair": pair,
                            "returncode": err.returncode, "stderr": err.stderr,
                        }
                        _write(args.out, doc)
                        raise
                    metrics = {n: res["metrics"][n]["value"] for n in names}
                    entry["runs"].append({
                        "side": side, "seed": seed, "pair": pair, "first": order[0],
                        "correct": res["correct"], "attempted": res["attempted"],
                        "failed": res["failed"], "metrics": metrics,
                    })
                    print(f"pair {pair} seed {seed} {side}: "
                          + ", ".join(f"{n} {v:.4g}" for n, v in metrics.items()),
                          flush=True)
                entry["summary"] = summarize(entry["runs"], end_to_end)
                entry["by_seed"] = {
                    str(s): summarize([r for r in entry["runs"] if r["seed"] == s],
                                      end_to_end)
                    for s in seeds
                }
                _write(args.out, doc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if entry["runs"]:
        print("\n".join(report_lines(args.workload, entry, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
