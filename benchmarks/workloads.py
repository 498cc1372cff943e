"""Workload inputs and one user session: bifpoint, continue, verify, transient.

Every workload runs the same four phases on its own generated config, so
every end-to-end metric exists on every workload; the workload decides which
phase carries the cost.  A session records the time of each unit of work it
runs (the median bifpoint call, each trajectory, the branch, the verify) in
``Session.samples``, in the same order every session, so that run.py can
take each unit's median time over the sessions of a run.  Every phase result is
checked against oracles kept outside the code under test (the scalar branch
relation and the homogeneous equilibria of ``agebranch.oracles``), and a
failed check is returned, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from agebranch import cli, model, oracles, spectral, validate

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
SCALED_PARAMS = ("mu0", "kappa", "d1")
SCALE_RANGE = (0.9, 1.1)

ORACLE_TOL = 1e-6  # relative, branch lambda against equilibrium_intensity(mean U)
DRIFT_TOL = 1e-4   # relative, transient field against its starting equilibrium
NEG_TOL = 1e-12    # most negative entry a transient may reach
TRANSIENT_STEPS = 100
RANDOM_RATIO = 1.2
BIFPOINT_CALLS = 5  # one call takes ~15 ms; the session's unit is their median


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    why: str
    # merged into the shipped "continuation" block before seeding
    continuation: dict = field(default_factory=dict)
    # transient starts: homogeneous oracle equilibria at these lambda/lambda0,
    # a seeded random field at RANDOM_RATIO * lambda0, and the last branch point
    oracle_ratios: tuple = (1.5,)
    random_start: bool = False
    branch_start: bool = True


# A whole branch takes 20-40 s, too long to repeat in one run.  Each
# workload stops its branch at a lambda/lambda0 that falls in a gap between
# the same two points on every seed, so every seed makes the same number of
# corrections.  Over seeds 0-12, logistic points 4 and 5 lie at 1.058-1.067
# and 1.085-1.107, density points 4 and 5 at 1.078-1.091 and 1.126-1.146:
# four points inside the box, the fifth correction ends the branch.
LOGISTIC_BOX = {"lambda_max_factor": 1.075}
DENSITY_BOX = {"lambda_max_factor": 1.108}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "logistic-fd", "configs/logistic_death.json",
            "the acceptance config (32x100, fd Jacobian): Picard reconstruction and "
            "fd block-Jacobian march; transients from an oracle equilibrium and a "
            "random field",
            continuation=LOGISTIC_BOX,
            random_start=True,
            branch_start=False,
        ),
        Workload(
            "density-analytic", "configs/density_diffusion.json",
            "state-dependent diffusivity, analytic Jacobian (24x80): shared-U "
            "multi-RHS marches, sensitivity loop; transient from the last branch point",
            continuation={**DENSITY_BOX, "jac_mode": "analytic"},
            oracle_ratios=(),
        ),
    )
}


def make_config(workload: Workload, seed: int) -> dict:
    """The config the program receives: the shipped one at the default seed,
    otherwise with mu0, kappa and d1 each scaled by a seeded factor."""
    cfg = json.loads((ROOT / workload.config).read_text())
    cfg.setdefault("continuation", {}).update(workload.continuation)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        params = cfg["model"]["params"]
        for key in SCALED_PARAMS:
            factor = rng.uniform(*SCALE_RANGE)
            if key in params:
                params[key] *= factor
    cfg["seed"] = seed
    return cfg


@dataclass
class Session:
    samples: dict = field(default_factory=dict)  # metric -> time of each unit, in order
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    phase_counts: dict = field(default_factory=dict)


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.run_command(argv)
    return code, buf.getvalue(), perf_counter() - t0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _homogeneous_equilibrium(lam: float, p: dict, g) -> np.ndarray:
    U = oracles.equilibrium_population(lam, p["mu0"], p["kappa"], p["b0"], g)
    m = p["mu0"] + p["kappa"] * U
    profile = oracles.homogeneous_profile(U / oracles.survival_sum(m, g), m, g)
    return np.repeat(profile[:, None], g.n_x, axis=1)


def run_session(workload: Workload, cfg: dict, cfg_path: Path, out_dir: Path,
                tracer=None) -> Session:
    """Run the four phases once; never raises for a failing program.

    Half of the oracle-started transients run before the branch and the
    rest after it.
    """
    s = Session()
    bif_times: list[float] = []
    s.samples["transient_s"] = []
    last = tracer.snapshot() if tracer is not None else None
    transient = {"drift": 0.0, "min_u": np.inf}

    def phase_done(name: str) -> None:
        nonlocal last
        if tracer is not None:
            now = tracer.snapshot()
            counts = s.phase_counts.setdefault(name, {})
            for k, (calls, busy) in now.items():
                c0, b0 = last.get(k, (0, 0.0))
                prev = counts.get(k, [0, 0.0])
                counts[k] = [prev[0] + calls - c0, prev[1] + busy - b0]
            last = now

    def check(ok: bool, message: str) -> None:
        if not ok and message not in s.failures:
            s.failures.append(message)

    def trajectories(starts) -> None:
        for lam, u0, is_equilibrium in starts:
            t0 = perf_counter()
            state = validate.simulate_transient(u0, lam, TRANSIENT_STEPS, spec, g)
            s.samples["transient_s"].append(perf_counter() - t0)
            transient["min_u"] = min(transient["min_u"], min(state.min_history))
            check(bool(np.all(np.isfinite(state.field))), "transient: non-finite field")
            if is_equilibrium:
                drift = model.field_norm(state.field - u0, g) / model.field_norm(u0, g)
                transient["drift"] = max(transient["drift"], drift)
        phase_done("transient")

    try:
        spec = cli.spec_from_config(cfg)
        g = model.build_grid(spec)
        p = spec.family_params
        lam0 = oracles.discrete_critical_intensity(p["mu0"], p["b0"], g)

        # bifpoint: critical intensity plus simplicity certificate
        for _ in range(BIFPOINT_CALLS):
            t0 = perf_counter()
            bif = spectral.bifurcation_point(spec, g)
            cert = spectral.check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)
            bif_times.append(perf_counter() - t0)
            check(cert.passed, "bifpoint: simplicity certificate failed")
            check(_rel(bif.lambda0, lam0) <= ORACLE_TOL,
                  f"bifpoint: lambda0 {bif.lambda0!r} vs oracle {lam0!r}")
        s.samples["bifpoint_s"] = [statistics.median(bif_times)]
        s.info["bifpoint_calls_s"] = bif_times
        phase_done("bifpoint")

        early = [(r * lam0, _homogeneous_equilibrium(r * lam0, p, g), True)
                 for r in workload.oracle_ratios]
        if workload.random_start:
            base = _homogeneous_equilibrium(RANDOM_RATIO * lam0, p, g)
            noise = np.random.default_rng(cfg["seed"]).uniform(0.5, 1.5, size=base.shape)
            early.append((RANDOM_RATIO * lam0, base * noise, False))
        half = (len(early) + 1) // 2
        trajectories(early[:half])

        # continue: the subcommand in-process, output writing included
        code, text, elapsed = _run_cli(
            ["continue", "--config", str(cfg_path), "--out", str(out_dir),
             "--seed", str(cfg["seed"])])
        s.samples["branch_s"] = [elapsed]
        check(code == 0, f"continue: exit code {code}: {text[-300:]}")
        phase_done("branch")
        s.info["output_bytes"] = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())

        meta = json.loads((out_dir / "branch_meta.json").read_text())
        snaps = [json.loads(f.read_text())
                 for f in sorted((out_dir / "snapshots").glob("point_*.json"))]
        s.info.update(termination=meta["termination"], points=len(snaps),
                      newton_iters=sum(x["diagnostics"]["newton_iters"] for x in snaps),
                      inner_sweeps=sum(x["diagnostics"]["inner_iters"] for x in snaps))
        check(meta["termination"] in ("box_lambda", "box_norm"),
              f"continue: termination {meta['termination']}")
        check(len(snaps) == meta["n_points"] and len(snaps) > 0,
              f"continue: {len(snaps)} snapshots for {meta['n_points']} points")
        worst = 0.0
        for snap in snaps:
            U_mean = float(np.mean(g.w_a @ np.asarray(snap["u"])))
            lam_oracle = oracles.equilibrium_intensity(U_mean, p["mu0"], p["kappa"], p["b0"], g)
            worst = max(worst, _rel(snap["lambda"], lam_oracle))
        s.info["oracle_rel_err"] = worst
        check(worst <= ORACLE_TOL, f"continue: lambda off the scalar oracle by {worst:.3e}")

        # verify: the subcommand on the output just written
        code, text, elapsed = _run_cli(
            ["verify", "--config", str(cfg_path), "--out", str(out_dir)])
        s.samples["verify_s"] = [elapsed]
        summary = text.strip().splitlines()[-1] if text.strip() else ""
        passed, _, total = summary.removeprefix("verify: ").partition(" ")[0].partition("/")
        check(code == 0 and summary.startswith("verify: ") and passed == total,
              f"verify: exit code {code}, {summary!r}")
        phase_done("verify")

        late = early[half:]
        if workload.branch_start:
            late.append((float(snaps[-1]["lambda"]), np.asarray(snaps[-1]["u"]), True))
        trajectories(late)

        s.info.update(drift=transient["drift"], min_u=float(transient["min_u"]))
        check(transient["drift"] <= DRIFT_TOL,
              f"transient: drift {transient['drift']:.3e} from equilibrium")
        check(transient["min_u"] >= -NEG_TOL,
              f"transient: entry {transient['min_u']:.3e} below {-NEG_TOL}")
    except Exception:  # a crashing program is a failed session, reported in full
        s.failures.append("exception: " + traceback.format_exc(limit=8))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return s
