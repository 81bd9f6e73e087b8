#!/usr/bin/env python3
"""samnet benchmark: training, evaluation and transfer throughput.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-canonical --seed 1 \\
        --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each was chosen):

- ``train-canonical``: generate a held-out corpus, ``training.train`` on
  toy-canonical (all classes, batch 32, evaluation only at the end), then
  ``training.evaluate_checkpoint`` on the held-out corpus.
- ``eval-hard-slots16``: ``training.load_eval_data`` on a toy-hard data
  config, then ``training.evaluate_checkpoint`` with 16 memory slots on a
  seeded toy-hard checkpoint (trained size 8) that set-up trains.
- ``transfer-temporal-finetune``: ``transfer.run_protocol`` on a temporal
  split (canonical complexity to more objects and frames), finetune
  protocol, with more target memory slots than the trained size.

``--trace 0`` times the calls from outside and prints the end-to-end
metrics. ``--trace 1`` replays the same calls component by component with
spans (benchmarks/replay.py), checks that the replay reproduces the
untraced results bit for bit, and prints the per-layer metrics. The last
line of standard output is one JSON object; the exit code is non-zero when
any correctness check fails.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

try:
    import numpy as np
    from samnet import training, transfer
    from samnet.cell import SAMNet
    from samnet.checkpoint import load_checkpoint
    from samnet.minicog import EpisodeConfig, generate_corpus
    from samnet.transfer import Complexity, build_temporal_split
    from reference_oracle import brute_force_answers
    import replay
except ImportError as exc:
    sys.exit(f"benchmark: cannot import the program from {ROOT}: {exc}")

WORKLOADS = ("train-canonical", "eval-hard-slots16", "transfer-temporal-finetune")
FINGERPRINT_SEED = 20191126
FINGERPRINTS_PATH = BENCH_DIR / "fingerprints.json"
# Fingerprint tolerances, relative except on accuracies. Float-order
# changes (gradient sums reordered, every initial weight moved by one ulp)
# moved the losses by at most 1.1e-8 and the update projection by at most
# 8.9e-6 relative, and flipped no answer; see README "Correctness gate".
LOSS_RTOL = 1e-5
PROJECTION_RTOL = 1e-3
ACC_ATOL = 1e-6
SETUP_REPS = 5
WORK_DIR = Path(".bench_runs") / "work"
RESULTS_DIR = Path(".bench_runs") / "results"

# Per-round sizes. "tiny" is for the smoke test only.
SIZES = {
    "full": {
        "train-canonical": {"setup_steps": 1, "setup_batch": 16, "setup_val": 8,
                            "steps": 2, "batch": 32, "val": 16, "heldout": 64},
        "eval-hard-slots16": {"setup_steps": 1, "setup_batch": 16,
                              "setup_val": 8, "eval": 64, "slots": 16},
        "transfer-temporal-finetune": {"setup_steps": 1, "setup_batch": 16,
                                       "setup_val": 8, "steps": 1, "batch": 16,
                                       "val": 8, "eval": 24, "finetune": 16,
                                       "slots": 6},
    },
    "tiny": {
        "train-canonical": {"setup_steps": 1, "setup_batch": 4, "setup_val": 2,
                            "steps": 1, "batch": 4, "val": 4, "heldout": 4},
        "eval-hard-slots16": {"setup_steps": 1, "setup_batch": 4,
                              "setup_val": 2, "eval": 4, "slots": 16},
        "transfer-temporal-finetune": {"setup_steps": 1, "setup_batch": 4,
                                       "setup_val": 2, "steps": 1, "batch": 4,
                                       "val": 4, "eval": 4, "finetune": 4,
                                       "slots": 6},
    },
}

END_TO_END_UNITS = {
    "train_eps_per_s": "eps/s", "eval_eps_per_s": "eps/s",
    "gen_eps_per_s": "eps/s", "protocol_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def round_seeds(seed: int, r: int) -> dict:
    """Seeds of round r: distinct inputs every round, fixed by --seed."""
    base = seed * 100_000 + r * 10
    return {"init_seed": base, "data_seed": base + 1, "val_seed": base + 2,
            "heldout_seed": base + 3}


def percentile(values, p: int) -> float:
    """The p-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


@dataclass
class Ledger:
    """What the benchmark saw from outside the program's calls.

    `samples` holds one {phase: [seconds, episodes]} entry per round (per
    set-up repetition for work done in set-up). A rate is the 10th
    percentile of the per-round rates: on a host shared with other tenants
    per-round rates are bimodal, the share of fast rounds changes from run
    to run, and a low percentile stays in the contended mode every run
    reaches.
    """

    samples: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    oracle_mismatches: int = 0
    protocol_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    setup_import_s: list = field(default_factory=list)
    rounds: int = 0
    trace_overhead: float = 0.0

    def begin(self) -> None:
        self.samples.append({})

    def add(self, phase: str, seconds: float, episodes: int) -> None:
        total = self.samples[-1].setdefault(phase, [0.0, 0])
        total[0] += seconds
        total[1] += episodes

    def rate(self, phase: str) -> float:
        return percentile(
            [s[phase][1] / s[phase][0] for s in self.samples if phase in s], 10)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_episodes(self, episodes) -> None:
        """Each generated episode's answers against the reference oracle."""
        self.attempted += len(episodes)
        for ep in episodes:
            want = brute_force_answers(ep.program, ep.scenes, ep.config.history)
            if list(ep.answers) != list(want):
                self.oracle_mismatches += 1
                self.fail(f"oracle mismatch: {ep.program.task_class} seed "
                          f"{ep.seed}: {list(ep.answers)} vs {want}")

    def check_finite(self, name: str, value: float) -> None:
        if not np.isfinite(value):
            self.fail(f"{name} is not finite: {value}")


def train_inputs(cfg) -> list:
    """The episodes `training.train(cfg)` generates: validation + stream."""
    ep_cfg, family = cfg.episode_config(), cfg.task_family_weights()
    return (generate_corpus(ep_cfg, family, cfg.val_episodes, cfg.val_seed)
            + generate_corpus(ep_cfg, family, cfg.max_steps * cfg.batch_size,
                              cfg.data_seed))


def count_train_ops(ledger: Ledger, cfg) -> None:
    """Operations of one train call: episodes trained and evaluated, and the
    checkpoints written (final+best at step 0 and after the last evaluation).
    Generated episodes are counted when they are checked."""
    ledger.attempted += cfg.max_steps * cfg.batch_size + cfg.val_episodes + 4


def same_arrays(path_a, path_b) -> bool:
    a, _, _ = load_checkpoint(path_a)
    b, _, _ = load_checkpoint(path_b)
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a)


def update_projection(ckpt_path, init_seed) -> float:
    """Sum over parameters of <w_final - w_init, r>, r a fixed Gaussian
    direction. Unlike the near-chance losses of a few Adam steps, it moves
    with every layer's update and changes when one layer's update is
    dropped or reversed."""
    model, _ = training.load_model(ckpt_path)
    init = SAMNet(model.config, init_seed=init_seed)
    rng = np.random.default_rng(0)
    total = 0.0
    for p, p0 in zip(model.store.parameters(), init.store.parameters()):
        delta = p.data.astype(np.float64) - p0.data
        total += float(rng.standard_normal(delta.size) @ delta.ravel())
    return total


def eval_summary(result) -> dict:
    return {"loss": result.loss, "accuracy": result.accuracy,
            "per_class": result.per_class_sorted()}


def import_program() -> None:
    """Start-up cost a user pays: importing samnet in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # no timeout: Popen.wait(timeout) polls in 50 ms steps, too coarse here
    subprocess.run([sys.executable, "-c", "import samnet.cli"], cwd=ROOT,
                   env=env, check=True)


class Workload:
    """One workload: its set-up, a timed round, the round's checks and the
    round's traced replay.

    `round` records its timings in the ledger and returns what `check`,
    `fingerprint` and `traced` need; `traced` returns a list of problems.
    """

    name = ""
    setup_preset = "toy-canonical"

    def __init__(self, size, ledger, work):
        self.size, self.ledger, self.work = size, ledger, work

    def setup_config(self, seed, out_dir):
        s = round_seeds(seed, 0)
        return training.config_from_preset(
            self.setup_preset, task_family="all",
            max_steps=self.size["setup_steps"],
            batch_size=self.size["setup_batch"], eval_every=0,
            val_episodes=self.size["setup_val"], init_seed=s["init_seed"],
            data_seed=s["data_seed"], val_seed=s["val_seed"],
            out_dir=str(out_dir))

    def setup(self, seed):
        """Train the seeded set-up checkpoint: one `training.train` step.

        It warms every code path the rounds use; only eval-hard-slots16
        evaluates the checkpoint.
        """
        cfg = self.setup_config(seed, self.work / "setup")
        t0 = perf_counter()
        result = training.train(cfg)
        return {"cfg": cfg, "result": result, "seconds": perf_counter() - t0}

    def check_setup(self, state, previous) -> None:
        led, cfg = self.ledger, state["cfg"]
        led.check_episodes(train_inputs(cfg))
        count_train_ops(led, cfg)
        led.check_finite("set-up val loss", state["result"].history[-1][2])
        if previous is not None and previous["result"].history != state["result"].history:
            led.fail("repeated set-up trained a different checkpoint")

    def traced_setup(self, seed, state, tr) -> list:
        """Replays set-up training. Its episodes are the ones whose tapes
        are walked for `tensor.tape_nodes_per_episode`, so no walk runs in a
        traced round and `trace.overhead_frac` holds span overhead only."""
        cfg = self.setup_config(seed, self.work / "traced-setup")
        history = replay.train(cfg, tr)
        problems = []
        if history != state["result"].history:
            problems.append(f"set-up history {history} vs {state['result'].history}")
        if not same_arrays(os.path.join(cfg.out_dir, "final.ckpt"),
                           state["result"].final_checkpoint):
            problems.append("set-up checkpoint weights differ")
        return problems


class TrainCanonical(Workload):
    name = "train-canonical"

    def config(self, seed, r, out_dir):
        s = round_seeds(seed, r)
        return training.config_from_preset(
            "toy-canonical", task_family="all", batch_size=self.size["batch"],
            max_steps=self.size["steps"], eval_every=0,
            val_episodes=self.size["val"], init_seed=s["init_seed"],
            data_seed=s["data_seed"], val_seed=s["val_seed"],
            out_dir=str(out_dir))

    def round(self, seed, r, state):
        cfg = self.config(seed, r, self.work / "train")
        heldout_seed = round_seeds(seed, r)["heldout_seed"]
        n = self.size["heldout"]
        t0 = perf_counter()
        heldout = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                                  n, seed=heldout_seed)
        t1 = perf_counter()
        result = training.train(cfg)
        t2 = perf_counter()
        ev, _ = training.evaluate_checkpoint(result.final_checkpoint, heldout)
        t3 = perf_counter()
        led = self.ledger
        led.add("gen", t1 - t0, n)
        led.add("train", t2 - t1, cfg.max_steps * cfg.batch_size)
        led.add("eval", t3 - t2, n)
        return {"cfg": cfg, "heldout": heldout, "result": result, "eval": ev,
                "seconds": t3 - t0}

    def check(self, out):
        led, cfg = self.ledger, out["cfg"]
        led.check_episodes(out["heldout"])
        led.check_episodes(train_inputs(cfg))
        count_train_ops(led, cfg)
        led.attempted += self.size["heldout"] + 1
        led.check_finite("val loss", out["result"].history[-1][2])
        led.check_finite("eval loss", out["eval"].loss)

    def fingerprint(self, out):
        _, acc, loss = out["result"].history[-1]
        return {"val_loss": loss, "val_accuracy": acc,
                "eval_loss": out["eval"].loss,
                "eval_accuracy": out["eval"].accuracy,
                "update_projection": update_projection(
                    out["result"].final_checkpoint, out["cfg"].init_seed)}

    def traced(self, seed, r, out, tr):
        cfg = self.config(seed, r, self.work / "traced")
        with tr("round"):
            heldout = replay.generate(cfg.episode_config(),
                                      cfg.task_family_weights(),
                                      self.size["heldout"],
                                      round_seeds(seed, r)["heldout_seed"], tr)
            history = replay.train(cfg, tr)
            model = replay.load_model(os.path.join(cfg.out_dir, "final.ckpt"), tr)
            ev = replay.evaluate(model, heldout, tr)
        problems = []
        if history != out["result"].history:
            problems.append(f"train history {history} vs {out['result'].history}")
        if not same_arrays(os.path.join(cfg.out_dir, "final.ckpt"),
                           out["result"].final_checkpoint):
            problems.append("final weights differ")
        if eval_summary(ev) != eval_summary(out["eval"]):
            problems.append("held-out evaluation differs")
        return problems


class EvalHardSlots16(Workload):
    name = "eval-hard-slots16"

    setup_preset = "toy-hard"

    def setup(self, seed):
        """The seeded toy-hard checkpoint (8 slots) that rounds evaluate; the
        only training this workload does, so it gives `train_eps_per_s`."""
        state = super().setup(seed)
        cfg = state["cfg"]
        self.ledger.add("train", state["seconds"], cfg.max_steps * cfg.batch_size)
        return state

    def conf_path(self, seed, r):
        path = self.work / "hard.conf"
        path.write_text(
            "preset = toy-hard\ntask_family = all\n"
            f"val_episodes = {self.size['eval']}\n"
            f"val_seed = {round_seeds(seed, r)['heldout_seed']}\n",
            encoding="utf-8")
        return path

    def round(self, seed, r, state):
        conf = self.conf_path(seed, r)
        ckpt = state["result"].final_checkpoint
        t0 = perf_counter()
        episodes = training.load_eval_data(conf)
        t1 = perf_counter()
        ev, _ = training.evaluate_checkpoint(ckpt, episodes,
                                             n_slots=self.size["slots"])
        t2 = perf_counter()
        self.ledger.add("gen", t1 - t0, len(episodes))
        self.ledger.add("eval", t2 - t1, len(episodes))
        return {"conf": conf, "episodes": episodes, "eval": ev,
                "state": state, "seconds": t2 - t0}

    def check(self, out):
        led = self.ledger
        if len(out["episodes"]) != self.size["eval"]:
            led.fail(f"load_eval_data gave {len(out['episodes'])} episodes")
        led.check_episodes(out["episodes"])
        led.attempted += len(out["episodes"]) + 1
        led.check_finite("eval loss", out["eval"].loss)

    def fingerprint(self, out):
        state = out["state"]
        _, acc, loss = state["result"].history[-1]
        return {"ckpt_val_loss": loss, "ckpt_val_accuracy": acc,
                "eval_loss": out["eval"].loss,
                "eval_accuracy": out["eval"].accuracy,
                "update_projection": update_projection(
                    state["result"].final_checkpoint, state["cfg"].init_seed)}

    def traced(self, seed, r, out, tr):
        with tr("round"):
            cfg = training.parse_config_file(out["conf"])
            episodes = replay.generate(cfg.episode_config(),
                                       cfg.task_family_weights(),
                                       cfg.val_episodes, cfg.val_seed, tr)
            model = replay.load_model(out["state"]["result"].final_checkpoint, tr)
            ev = replay.evaluate(model, episodes, tr, n_slots=self.size["slots"])
        if eval_summary(ev) != eval_summary(out["eval"]):
            return ["16-slot evaluation differs"]
        return []


class TransferTemporalFinetune(Workload):
    name = "transfer-temporal-finetune"
    # run_protocol's calls per finetune protocol, as the replay mirrors them
    EXPECTED_CALLS = {"train": 2, "gen": 2, "eval": 4}

    def base(self, seed, r):
        s = round_seeds(seed, r)
        return training.config_from_preset(
            "toy-canonical", task_family="all", max_steps=self.size["steps"],
            batch_size=self.size["batch"], eval_every=0,
            val_episodes=self.size["val"], init_seed=s["init_seed"],
            data_seed=s["data_seed"], val_seed=s["val_seed"])

    def __init__(self, size, ledger, work):
        super().__init__(size, ledger, work)
        # canonical complexity (6 objects, 4 frames) to a strictly harder target
        self.split = build_temporal_split(
            Complexity(max_objects=6, frames=4), Complexity(max_objects=8, frames=6),
            base_config=EpisodeConfig(), protocol="finetune",
            finetune_episodes=size["finetune"])

    @contextmanager
    def timed_calls(self, calls):
        """Time the public calls run_protocol makes, from outside the call."""
        originals = {name: getattr(transfer, name) for name in
                     ("train", "generate_corpus", "evaluate_episodes")}

        def timed(phase, fn, episodes_of):
            def wrapper(*args, **kw):
                t0 = perf_counter()
                out = fn(*args, **kw)
                calls.append((phase, perf_counter() - t0, episodes_of(args, kw, out),
                              args, kw, out))
                return out
            return wrapper

        transfer.train = timed(
            "train", originals["train"],
            lambda a, kw, out: a[0].max_steps * a[0].batch_size)
        transfer.generate_corpus = timed(
            "gen", originals["generate_corpus"], lambda a, kw, out: len(out))
        transfer.evaluate_episodes = timed(
            "eval", originals["evaluate_episodes"], lambda a, kw, out: len(a[1]))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(transfer, name, fn)

    def round(self, seed, r, state):
        base = self.base(seed, r)
        out_dir = str(self.work / "protocol")
        calls = []
        with self.timed_calls(calls):
            t0 = perf_counter()
            report = transfer.run_protocol(
                self.split, base, out_dir, eval_episodes=self.size["eval"],
                target_mem_slots=self.size["slots"])
            seconds = perf_counter() - t0
        for phase, secs, n, *_ in calls:
            self.ledger.add(phase, secs, n)
        return {"base": base, "out_dir": out_dir, "report": report,
                "calls": calls, "seconds": seconds}

    def check(self, out):
        led, calls = self.ledger, out["calls"]
        seen = {p: sum(1 for c in calls if c[0] == p) for p in self.EXPECTED_CALLS}
        if seen != self.EXPECTED_CALLS:
            led.fail(f"run_protocol made calls {seen}, expected {self.EXPECTED_CALLS}")
        for phase, _, n, args, kw, result in calls:
            if phase == "train":
                led.check_episodes(train_inputs(args[0]))
                count_train_ops(led, args[0])
                led.attempted += kw.get("init_from") is not None
            elif phase == "gen":
                led.check_episodes(result)
            else:
                led.attempted += n
        led.attempted += 3  # checkpoints read: two load_model, one manifest_hash
        led.check_finite("report accuracy", out["report"]["aggregate_accuracy"])

    def fingerprint(self, out):
        ev = out["report"]["evaluations"]
        fp = {"report_accuracy": out["report"]["aggregate_accuracy"],
              "update_projection": update_projection(
                  os.path.join(out["out_dir"], "finetune", "final.ckpt"),
                  out["base"].init_seed)}
        for key in sorted(ev):
            fp[f"{key}_loss"] = ev[key]["loss"]
        return fp

    def traced(self, seed, r, out, tr):
        with tr("round"):
            evaluations = replay.run_protocol(
                self.split, out["base"], str(self.work / "traced-protocol"),
                self.size["eval"], self.size["slots"], tr)
        if evaluations != out["report"]["evaluations"]:
            return ["protocol evaluations differ"]
        return []


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (TrainCanonical, EvalHardSlots16, TransferTemporalFinetune)}


def load_fingerprints():
    with open(FINGERPRINTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_fingerprint(ledger, expected, got) -> None:
    if expected is None or set(expected) != set(got):
        ledger.fail(f"fingerprint {got!r} does not match the stored keys "
                    f"{sorted(expected or ())}")
        return
    for key, want in expected.items():
        value = got[key]
        if "accuracy" in key:
            tol = ACC_ATOL
        else:
            tol = (PROJECTION_RTOL if key == "update_projection"
                   else LOSS_RTOL) * abs(want)
        if not abs(value - want) <= tol:
            ledger.fail(f"fingerprint {key} = {value!r}, stored {want!r} (tolerance {tol})")


def setup_once(wl, seed, previous):
    """One timed set-up: a fresh-interpreter import plus the workload's own
    preparation. Returns its state, checked against the previous one."""
    wl.ledger.begin()
    t0 = perf_counter()
    import_program()
    t1 = perf_counter()
    state = wl.setup(seed)
    wl.ledger.setup_s.append(perf_counter() - t0)
    wl.ledger.setup_import_s.append(t1 - t0)
    wl.check_setup(state, previous)
    return state


def run_workload(name, seed, seconds, trace, size, fingerprints):
    ledger = Ledger()
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOAD_CLASSES[name](SIZES[size][name], ledger, work)
    tr = replay.Tracer() if trace else None

    # Correctness fingerprint at a pinned seed; it also warms the caches.
    ledger.begin()
    fp_state = wl.setup(FINGERPRINT_SEED)
    wl.check_setup(fp_state, None)
    fp_out = wl.round(FINGERPRINT_SEED, 0, fp_state)
    wl.check(fp_out)
    check_fingerprint(ledger, fingerprints.get(size, {}).get(name),
                      wl.fingerprint(fp_out))
    ledger.samples.clear()

    if trace:
        ledger.begin()
        state = wl.setup(seed)
        wl.check_setup(state, None)
        for problem in wl.traced_setup(seed, state, tr):
            ledger.fail(f"traced set-up: {problem}")
        tr.count_tape = False
    else:
        state = setup_once(wl, seed, None)

    untraced_s = traced_s = 0.0
    measured = 0.0
    r = 0
    while measured < seconds:
        # Set-up repeats are spread over the run, one per 1/SETUP_REPS of it:
        # a burst of them at the start sees only those seconds of a host
        # whose speed drifts, and drifted more between sets of runs than the
        # rounds did.
        if not trace and measured >= len(ledger.setup_s) * seconds / SETUP_REPS:
            state = setup_once(wl, seed, state)
        ledger.begin()
        out = wl.round(seed, r, state)
        measured += out["seconds"]
        ledger.protocol_s.append(out["seconds"])
        wl.check(out)
        if trace:
            t0 = perf_counter()
            problems = wl.traced(seed, r, out, tr)
            traced_s += perf_counter() - t0
            untraced_s += out["seconds"]
            measured += perf_counter() - t0
            for problem in problems:
                ledger.fail(f"traced round {r}: {problem}")
        r += 1
    while not trace and len(ledger.setup_s) < SETUP_REPS:
        state = setup_once(wl, seed, state)
    ledger.rounds = r
    if trace:
        ledger.trace_overhead = traced_s / untraced_s - 1.0
    return ledger, tr


def end_to_end_metrics(ledger):
    return {
        "train_eps_per_s": ledger.rate("train"),
        "eval_eps_per_s": ledger.rate("eval"),
        "gen_eps_per_s": ledger.rate("gen"),
        "protocol_s": percentile(ledger.protocol_s, 90),
        "setup_s": statistics.median(ledger.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(ledger, tr):
    """Per-layer metrics from the traced run's spans and exact counters."""
    c = tr.counts
    fwd, trained, steps = c["forward_episodes"], c["trained_episodes"], c["optimizer_steps"]
    ms_per = {}
    for name in ("encoders.question", "encoders.frame", "cell.controller",
                 "cell.temporal", "cell.visual", "cell.memread", "cell.gates",
                 "cell.memory_write", "cell.summary", "cell.answer"):
        ms_per[f"{name}_ms_per_episode"] = (tr.total(name) * 1e3 / fwd, "ms")
    ep_ms = sorted(d * 1e3 for d in tr.durations("training.eval_episode"))
    pct = statistics.quantiles(ep_ms, n=100, method="inclusive")
    metrics = dict(ms_per)
    metrics.update({
        "cell.steps_per_episode": (c["cell_steps"] / fwd, "count"),
        "tensor.loss_ms_per_episode": (tr.total("tensor.loss") * 1e3 / trained, "ms"),
        "tensor.backward_ms_per_episode":
            (tr.total("tensor.backward") * 1e3 / trained, "ms"),
        "tensor.backward_share":
            (tr.total("tensor.backward") / tr.total("training.episode"), "frac"),
        "tensor.tape_nodes_per_episode":
            (c["tape_nodes"] / c["tape_episodes"], "count"),
        "training.adam_ms_per_step": (tr.total("training.adam") * 1e3 / steps, "ms"),
        "training.clip_ms_per_step": (tr.total("training.clip") * 1e3 / steps, "ms"),
        "training.eval_ms_per_episode_p50": (statistics.median(ep_ms), "ms"),
        "training.eval_ms_per_episode_p99": (pct[98], "ms"),
        "minicog.gen_ms_per_episode":
            (statistics.fmean(tr.durations("minicog.gen")) * 1e3, "ms"),
        "minicog.render_ms_per_episode":
            (statistics.fmean(tr.durations("minicog.render")) * 1e3, "ms"),
        "minicog.oracle_mismatches": (ledger.oracle_mismatches, "count"),
        "checkpoint.save_ms":
            (statistics.fmean(tr.durations("checkpoint.save")) * 1e3, "ms"),
        "checkpoint.load_ms":
            (statistics.fmean(tr.durations("checkpoint.load")) * 1e3, "ms"),
        "checkpoint.bytes": (tr.checkpoint_bytes, "B"),
        "trace.overhead_frac": (ledger.trace_overhead, "frac"),
    })
    extra = {"training.eval_episodes_sampled": (len(ep_ms), "count")}
    if tr.durations("transfer.source_train"):
        for phase in ("source_train", "corpus_gen", "eval", "finetune"):
            extra[f"transfer.{phase}_s"] = (
                tr.total(f"transfer.{phase}") / ledger.rounds, "s")
    return metrics, extra


def git_sha():
    """HEAD of the checkout, or None outside a git repository. The ceiling
    stops git from reporting a repository that merely contains the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def write_results(name, args, record, tr):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tr is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "episode"],
                       "spans": tr.spans}, fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny per-round sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = "tiny" if args.tiny else "full"
    cwd = os.getcwd()
    os.chdir(ROOT)  # checkpoint paths, and so their bytes, are root-relative
    try:
        fingerprints = load_fingerprints()
        env = environment()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"size {size}")
        print("env " + json.dumps(env, sort_keys=True))
        tr = None
        try:
            ledger, tr = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, size, fingerprints)
        except Exception:  # the run's boundary: report, then fail the run
            ledger = Ledger(attempted=1)
            ledger.fail("exception:\n" + traceback.format_exc())
            metrics, extra = {}, {}
        else:
            if args.trace:
                metrics, extra = per_layer_metrics(ledger, tr)
            else:
                metrics = {k: (v, END_TO_END_UNITS[k])
                           for k, v in end_to_end_metrics(ledger).items()}
                import_s = statistics.median(ledger.setup_import_s)
                extra = {"setup.import_s": (import_s, "s"),
                         "setup.import_share":
                             (import_s / metrics["setup_s"][0], "frac")}
        finally:
            shutil.rmtree(WORK_DIR / args.workload, ignore_errors=True)
        failed = len(ledger.failures)
        attempted = max(1, ledger.attempted)
        for message in ledger.failures[:20]:
            print("FAIL " + message)
        for key, (value, unit) in {**metrics, **extra}.items():
            print(f"{key} = {value:.6g} {unit}")
        print(f"failed_frac = {failed / attempted:.6g} "
              f"({failed} of {attempted} operations)")
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        write_results(args.workload, args, {
            "args": vars(args), "env": env, "result": result,
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "samples": ledger.samples, "setup_s": ledger.setup_s,
            "setup_import_s": ledger.setup_import_s,
            "failures": ledger.failures,
        }, tr)
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(main())
