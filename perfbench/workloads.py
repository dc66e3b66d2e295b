"""Seeded config generators, one per benchmark workload.

Each generator takes the workload seed and returns the invocations of one
pass: a subcommand plus one JSON config each.  Every input is drawn from the
subcommand's documented valid domain.  Where an input sets the cost of a run
(eps, horizon, carrier wavenumber), each slot of the pass draws from its own
narrow band, so that every seed exercises the whole range and a pass costs
about the same on every seed; the seed moves values inside the bands and the
problem structure (quantity sets, polynomial families, orders, member
orders of sweeps) freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy

from checks import dimension_matrix, phase_matched_roots

# Accept predicates, at the tolerances the acceptance suite pins.
# damped_linear: criterion 2 (two-term error over t <= eps^-2 at eps = 0.01);
# coupled_cubic: criterion 6 (pilot-pinned 0.2).  cubic and quadratic_damped
# have no pinned compare tolerance; they take the loosest pinned one, 0.2.
ODE_MAX_ABS_ERROR = {
    "damped_linear": 5e-3,
    "cubic": 0.2,
    "coupled_cubic": 0.2,
    "quadratic_damped": 0.2,
}
PDE_L2_ERROR = 0.05  # criterion 9
BLAYER_HALF_WIDTH_EPS = 5.0  # criterion 7

# Nonlinear shooting fails to converge for eps in about [0.18, 0.2] although
# the documented range is 0 < eps <= 0.2; draws stay below that band.
NONLINEAR_EPS_MAX = 0.17


@dataclass(frozen=True)
class Invocation:
    name: str
    subcommand: str
    config: dict


def _band(rng: random.Random, centre: float, rel: float = 0.03) -> float:
    return round(centre * rng.uniform(1.0 - rel, 1.0 + rel), 6)


def _distinct(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n distinct values, one from each of n equal strata of [lo, hi]."""
    width = (hi - lo) / n
    values = [round(lo + width * (i + rng.random()), 6) for i in range(n)]
    rng.shuffle(values)
    return values


# --- cli_light --------------------------------------------------------------


_BASES = ["L", "T", "M", "K"]
_EXPONENTS = ["-2", "-1", "-1", "1", "1", "2", "1/2", "-1/2", "3"]


def _pi_config(rng: random.Random) -> dict:
    k = rng.randint(2, 4)
    base = _BASES[:k]
    n = rng.randint(max(4, k + 1), 8)
    quantities = {}
    for j in range(n):
        dims = [f"{b}^{rng.choice(_EXPONENTS)}" for b in base if rng.random() < 0.6]
        quantities[f"q{j}"] = " ".join(dims) if dims else "1"
    # membership targets: integer combinations of the independently computed
    # dimensionless lattice, so every target is in the span
    membership = {}
    for t, vec in enumerate(_null_combinations(base, quantities, rng)):
        membership[f"target{t}"] = {q: str(v) for q, v in zip(quantities, vec) if v != 0}
    return {
        "base": " ".join(base),
        "quantities": quantities,
        "membership": membership,
        "accept": {"membership_all": True},
    }


def _null_combinations(base, quantities, rng):
    basis = sympy.Matrix(dimension_matrix(base, quantities)).nullspace()
    combos = []
    for _ in range(2):
        vec = sympy.zeros(len(quantities), 1)
        for b in basis:
            vec += rng.randint(-2, 2) * b
        if any(v != 0 for v in vec):
            combos.append(list(vec))
    return combos


def _root_product(roots: list[int], lead: int) -> list[int]:
    """Coefficients (lowest power first) of lead * prod (x - r)."""
    coeffs = [lead]
    for r in roots:
        shifted = [0] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= r * c
        coeffs = shifted
    return coeffs


def _roots_config(rng: random.Random, rescaled: bool) -> dict:
    degree = rng.randint(2, 5)
    roots = rng.sample(range(-4, 5), degree)
    lead = rng.choice([-3, -2, -1, 1, 2, 3])
    p0 = _root_product(roots, lead)
    # nested[j][m] multiplies x^j eps^m; perturb with small integer terms
    family = [[c, rng.randint(-2, 2), rng.randint(-1, 1)] for c in p0]
    config = {"family": family, "order": rng.randint(4, 8), "mode": "exact"}
    if rescaled:
        # eps x^(d+1) + P(x, eps) is singular; x = y/eps recovers the lost
        # root y0 = -lead of the rescaled family
        family.append([0, 1])
        config.update(root=-lead, rescale_exponent=1)
    else:
        config["root"] = rng.choice(roots)
    return config


def _euler_config(rng: random.Random) -> dict:
    # (m+1)! eps^(m+1) stays above 10 quad_tol for eps >= 0.02, m <= 7, where
    # the float path resolves the remainder bound
    return {
        "eps_values": sorted(_distinct(rng, 0.02, 0.2, rng.randint(2, 4))),
        "m_values": list(range(rng.randint(4, 7) + 1)),
        "quad_tol": 1e-12,
        "accept": {"bound_holds": True},
    }


def _blayer_config(rng: random.Random, kind: str) -> dict:
    hi = 0.2 if kind == "linear" else NONLINEAR_EPS_MAX
    config = {
        "kind": kind,
        "eps": _distinct(rng, 0.01, hi, 3 if kind == "linear" else 2),
        "n_grid": 8192,
        "seed": rng.randint(0, 2**31 - 1),
    }
    if kind == "linear":
        config["accept"] = {"half_width_le_eps_multiple": BLAYER_HALF_WIDTH_EPS}
    return config


def _phase_match_config(rng: random.Random) -> dict:
    kind, harmonic = rng.choice(
        [("fourth_order", 2), ("fourth_order", 3), ("klein_gordon", 2), ("klein_gordon", 3)]
    )
    k_range = [round(rng.uniform(0.1, 0.5), 6), round(rng.uniform(1.0, 2.0), 6)]
    return {
        "task": "phase_match",
        "kind": kind,
        "harmonic": harmonic,
        "k_range": k_range,
        "accept": {"roots": phase_matched_roots(kind, harmonic, k_range), "tol": 1e-10},
    }


def cli_light(seed: int) -> list[Invocation]:
    rng = random.Random(f"cli_light:{seed}")
    plan = [
        ("pi", _pi_config(rng)),
        ("pi", _pi_config(rng)),
        ("roots", _roots_config(rng, rescaled=False)),
        ("roots", _roots_config(rng, rescaled=False)),
        ("roots", _roots_config(rng, rescaled=True)),
        ("euler", _euler_config(rng)),
        ("blayer", _blayer_config(rng, "linear")),
        ("blayer", _blayer_config(rng, "nonlinear")),
        ("blayer", _blayer_config(rng, "nonlinear")),
        ("pde", _phase_match_config(rng)),
    ]
    invocations = [
        Invocation(f"light{i:02d}_{sub}", sub, config) for i, (sub, config) in enumerate(plan)
    ]
    rng.shuffle(invocations)
    return invocations


# --- ode_compare --------------------------------------------------------------


def _ode(case: str, eps, rng: random.Random, **extra) -> dict:
    config = {"case": case, "eps": eps, **extra}
    if isinstance(eps, list):
        config["seed"] = rng.randint(0, 2**31 - 1)
    config["accept"] = {"max_abs_error_le": ODE_MAX_ABS_ERROR[case]}
    return config


def ode_compare(seed: int) -> list[Invocation]:
    rng = random.Random(f"ode_compare:{seed}")
    configs = [
        # single eps, long horizons: the reference solve is most of the compute
        _ode("damped_linear", _band(rng, 0.035), rng, horizon_exponent=2,
             include_naive=True),
        _ode("cubic", _band(rng, 0.15, 0.02), rng, horizon_exponent=3),
        _ode("coupled_cubic", _band(rng, 0.095), rng, horizon_exponent=2),
        # eps sweeps sharing one explicit horizon; seed shuffles member order
        _ode("quadratic_damped", _distinct(rng, 0.002, 0.05, 8), rng,
             horizon=_band(rng, 300.0), ics=[1.0, 0.0]),
        _ode("damped_linear", _distinct(rng, 0.02, 0.05, 8), rng,
             horizon=_band(rng, 25.0), include_naive=True),
        _ode("cubic", _distinct(rng, 0.05, 0.1, 8), rng, horizon=_band(rng, 20.0)),
    ]
    invocations = [
        Invocation(f"ode{i:02d}_{c['case']}", "ode", c) for i, c in enumerate(configs)
    ]
    rng.shuffle(invocations)
    return invocations


# --- pde_kg / pde_fourth ---------------------------------------------------------


def _packet(rng: random.Random, kind: str, order: int, eps: float, k: float,
            horizon: float) -> dict:
    horizon = _band(rng, horizon)
    fractions = sorted(rng.sample([0.2, 0.4, 0.6, 0.8], rng.randint(1, 2)))
    return {
        "task": "packet_compare",
        "kind": kind,
        "eps": _band(rng, eps),
        # the carrier must be an exact grid wavenumber; the packet domain is
        # sized to a whole number of wavelengths, so any k works
        "k": _band(rng, k),
        "order": order,
        "checkpoints": [round(f * horizon, 6) for f in fractions] + [horizon],
        "dt": 0.02,
        "rtol": 1e-9,
        "accept": {"l2_error_le": PDE_L2_ERROR},
    }


# (eps, k, horizon * eps) per slot.  Klein-Gordon slots stay clear of the
# domain size at which the grid doubles (one slot sits on the 4096 side).
_KG_SLOTS = [(0.1, 0.72, 2.5), (0.09, 1.26, 1.0), (0.08, 1.0, 1.5),
             (0.06, 0.85, 1.0), (0.08, 1.26, 4.8), (0.07, 1.2, 1.0)]
# Fourth-order k stays in [0.75, 1.2]: clear of the 3k resonance at 1/sqrt(3)
# and of zero group velocity at 1/sqrt(2); horizons stay at or below 1/eps.
_FOURTH_SLOTS = [(0.1, 0.78, 0.7), (0.1, 1.15, 0.4), (0.08, 0.9, 0.6),
                 (0.06, 1.05, 0.4), (0.09, 1.1, 0.7), (0.07, 0.8, 0.45)]


def pde_kg(seed: int) -> list[Invocation]:
    rng = random.Random(f"pde_kg:{seed}")
    invocations = [
        Invocation(f"kg{i:02d}", "pde",
                   _packet(rng, "klein_gordon", 1, eps, k, c / eps))
        for i, (eps, k, c) in enumerate(_KG_SLOTS)
    ]
    rng.shuffle(invocations)
    return invocations


def pde_fourth(seed: int) -> list[Invocation]:
    rng = random.Random(f"pde_fourth:{seed}")
    invocations = [
        Invocation(f"fourth{i:02d}", "pde",
                   _packet(rng, "fourth_order", 0, eps, k, c / eps))
        for i, (eps, k, c) in enumerate(_FOURTH_SLOTS)
    ]
    rng.shuffle(invocations)
    return invocations


GENERATORS = {
    "cli_light": cli_light,
    "ode_compare": ode_compare,
    "pde_kg": pde_kg,
    "pde_fourth": pde_fourth,
}
