"""Strength sweeps, crossing-point searches, and Monte Carlo photon counting.

Every sweep row is computed analytically from the instrument model and the
estimation machinery; rows are independent, so grids may be evaluated
concurrently.  A sweep or crossing search takes the effects of its whole
grid from one :func:`~seqpol.instrument.effect_stack` and every (P, c) pair
from one :func:`~seqpol.analysis.stack_terms` product over it; only the
estimates and error reports of each row run point by point.  Monte Carlo
counting runs draw from per-run generators seeded by (seed, run index), which
keeps concurrent execution deterministic and order-independent.
"""

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .algebra import (
    DichotomicObservable,
    QubitState,
    born_probability,
    make_linear_polarization,
    make_stokes,
)
from .analysis import (
    ErrorReport,
    EstimateTable,
    OutcomeTerms,
    calibrated_terms,
    check_nonnegative,
    error_report,
    moments,
    stack_terms,
    symmetric_error_probability,
)
from .exceptions import InvalidInputError
from .instrument import (
    M1_VALUES,
    OUTCOMES,
    OutcomeDistribution,
    SetupParams,
    V_HV_DEFAULT,
    V_PM_DEFAULT,
    effect_stack,
    pm_error_probability,
    sequential_povm,
)

DEFAULT_INPUT_ANGLE_DEG = 67.5
BISECTION_TOL_DEG = 0.01
# A curve value counts toward a sign change only above this many machine
# epsilons times its noise scale.  P(m) and c_m are traces of operators of
# norm at most one, so each carries an absolute rounding error of order
# epsilon.  Where the curves vanish identically (the swap gap on eigenstate
# inputs, c(-1,-1) on H and V inputs at v_pm = 0) the noise stays below
# 0.3 epsilon of the scale.
NOISE_EPS = 8.0 * np.finfo(float).eps
# numpy's multinomial draws take a C long.
_MAX_PHOTONS = int(np.iinfo(np.int64).max)

# Assigning the eigenvalue of the commuting first measurement to m1.
_EIGENVALUE_ASSIGNMENT = EstimateTable({m1: float(m1) for m1 in M1_VALUES})

CROSSING_SIGN_FLIP = "aopt[m1=-1] zero crossing"
CROSSING_BRANCH_SWAP = "aopt[m1=-1 m2=+1] overtakes aopt[m1=+1 m2=+1]"


def default_theta_grid() -> tuple[float, ...]:
    """0 to 22.5 degrees in 0.5 degree steps (46 points)."""
    return tuple(0.5 * i for i in range(46))


@dataclass(frozen=True)
class SweepConfig:
    """Grid, instrument visibilities, and input preparation."""

    theta_grid: tuple[float, ...] = default_theta_grid()
    v_pm: float = V_PM_DEFAULT
    v_hv: float = V_HV_DEFAULT
    input_angle_deg: float = DEFAULT_INPUT_ANGLE_DEG

    def __post_init__(self):
        grid = tuple(float(t) for t in self.theta_grid)
        if not grid:
            raise InvalidInputError("theta_grid needs at least one strength setting")
        for theta in grid:
            SetupParams(theta, self.v_pm, self.v_hv)  # range validation
        object.__setattr__(self, "theta_grid", grid)

    def setup(self, theta_deg: float) -> SetupParams:
        return SetupParams(theta_deg, self.v_pm, self.v_hv)


@dataclass(frozen=True)
class SweepRow:
    """All quantities tracked per strength setting.

    Conditional averages are ``None`` for unresolvable outcomes.  The three
    squared errors belong to the eigenvalue assignment to m1, the optimal
    estimate from m1 alone, and the optimal estimate from both outcomes.
    """

    theta_deg: float
    p_error: float
    probs: OutcomeDistribution
    a_opt_m1: Mapping[int, float | None]
    a_opt_m1m2: Mapping[tuple[int, int], float | None]
    eps_sq_eigen: float
    eps_sq_opt_m1: float
    eps_sq_opt_m1m2: float


def row_as_dict(row: SweepRow) -> dict[str, float | None]:
    """Flat single-row view with one canonical key order."""
    return {
        "theta_deg": row.theta_deg,
        "p_error": row.p_error,
        "p_pp": row.probs[(1, 1)],
        "p_pm": row.probs[(1, -1)],
        "p_mp": row.probs[(-1, 1)],
        "p_mm": row.probs[(-1, -1)],
        "aopt_m1_plus": row.a_opt_m1[1],
        "aopt_m1_minus": row.a_opt_m1[-1],
        "aopt_pp": row.a_opt_m1m2[(1, 1)],
        "aopt_pm": row.a_opt_m1m2[(1, -1)],
        "aopt_mp": row.a_opt_m1m2[(-1, 1)],
        "aopt_mm": row.a_opt_m1m2[(-1, -1)],
        "eps_eigen": row.eps_sq_eigen,
        "eps_opt_m1": row.eps_sq_opt_m1,
        "eps_opt_m1m2": row.eps_sq_opt_m1m2,
    }


def m1_terms(terms: OutcomeTerms) -> dict[int, tuple[float, float]]:
    """(P, c) of m1 alone: both are linear in the effect, so they add over m2."""
    summed = {m1: (0.0, 0.0) for m1 in M1_VALUES}
    for (m1, _), (p, c) in terms.items():
        p_sum, c_sum = summed[m1]
        summed[m1] = (p_sum + p, c_sum + c)
    return summed


def _sweep_row(
    theta_deg: float,
    p_error: float,
    terms: OutcomeTerms,
    mean_square: float,
    variance: float,
    screen: Callable[[ErrorReport], ErrorReport],
    eps_sq_eigen: float | None,
) -> SweepRow:
    """The row of one setting from its (P, c) table; ``screen`` passes every
    error report computed here, and a known ``eps_sq_eigen`` is taken as is."""
    marginal = m1_terms(terms)
    a_opt_m1, opt_m1 = error_report(marginal, mean_square, variance)
    a_opt_m1m2, opt_m1m2 = error_report(terms, mean_square, variance)
    if eps_sq_eigen is None:
        eigen = error_report(marginal, mean_square, variance, _EIGENVALUE_ASSIGNMENT)[1]
        eps_sq_eigen = screen(eigen).epsilon_sq
    return SweepRow(
        theta_deg=theta_deg,
        p_error=p_error,
        probs=OutcomeDistribution({label: p for label, (p, _) in terms.items()}),
        a_opt_m1=a_opt_m1.assignments,
        a_opt_m1m2=a_opt_m1m2.assignments,
        eps_sq_eigen=eps_sq_eigen,
        eps_sq_opt_m1=screen(opt_m1).epsilon_sq,
        eps_sq_opt_m1m2=screen(opt_m1m2).epsilon_sq,
    )


def grid_terms(
    state: QubitState, effects: np.ndarray, target: DichotomicObservable
) -> list[dict[tuple[int, int], tuple[float, float]]]:
    """One (P, c) table per grid point of an :func:`effect_stack`, keyed by outcome."""
    p, c = stack_terms(state, effects, target)
    return [dict(zip(OUTCOMES, zip(p_row, c_row))) for p_row, c_row in zip(p.tolist(), c.tolist())]


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """One row per grid point, fully analytic and deterministic."""
    state = make_linear_polarization(config.input_angle_deg)
    target = make_stokes("PM")
    mean_square, variance = moments(state, target)
    effects = effect_stack(config.theta_grid, config.v_pm, config.v_hv)
    return [
        _sweep_row(theta, pm_error_probability(config.setup(theta)), terms, mean_square,
                   variance, screen=check_nonnegative, eps_sq_eigen=None)
        for theta, terms in zip(config.theta_grid, grid_terms(state, effects, target))
    ]


def analytic_row(params: SetupParams, input_angle_deg: float = DEFAULT_INPUT_ANGLE_DEG) -> SweepRow:
    """One deterministic sweep row straight from the instrument model."""
    config = SweepConfig((params.theta_deg,), params.v_pm, params.v_hv, input_angle_deg)
    return run_sweep(config)[0]


@dataclass(frozen=True)
class Crossing:
    """A named root in theta; ``theta_deg`` is None when no sign change exists."""

    description: str
    theta_deg: float | None


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > BISECTION_TOL_DEG:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _first_root(
    points: list[tuple[float, float, float]], f: Callable[[float], float]
) -> float | None:
    """First bracketed sign change among grid ``points`` (theta, value, noise scale).

    Values within ``NOISE_EPS`` times their scale carry no sign and are
    skipped, so a curve that is zero up to rounding has no root.  The
    bracket is refined by bisection on ``f``.
    """
    last = None
    for theta, value, scale in points:
        if abs(value) <= NOISE_EPS * scale:
            continue
        if last is not None and (value < 0.0) != (last[1] < 0.0):
            return _bisect(f, last[0], theta, last[1])
        last = (theta, value)
    return None


def find_crossings(config: SweepConfig) -> list[Crossing]:
    """Bracketed, bisected roots of the two characteristic estimate curves.

    The first root is where the conditional average for (m1, m2) = (-1, -1)
    changes sign (the prior bias and the measurement evidence balance); it is
    located through the pole-free numerator c(-1,-1), which shares its sign
    with the estimate wherever P(-1,-1) > 0.  The second is where the m2 = +1
    estimates of the two m1 branches cross; it is located through the
    pole-free product form c(-1,+1) P(+1,+1) - c(+1,+1) P(-1,+1), which
    shares its zeros with the estimate difference.
    """
    state = make_linear_polarization(config.input_angle_deg)
    target = make_stokes("PM")
    # One table per strength, shared by both curves: the grid in one stack,
    # then each new bisection midpoint once.
    tables: dict[float, OutcomeTerms] = {}

    def evaluate(thetas) -> None:
        effects = effect_stack(thetas, config.v_pm, config.v_hv)
        tables.update(zip(thetas, grid_terms(state, effects, target)))

    def terms(theta: float) -> OutcomeTerms:
        if theta not in tables:
            evaluate((theta,))
        return tables[theta]

    def branch_numerator(t: OutcomeTerms) -> tuple[float, float]:
        _, c_mm = t[(-1, -1)]
        return c_mm, 1.0

    def branch_swap_gap(t: OutcomeTerms) -> tuple[float, float]:
        p_mp, c_mp = t[(-1, 1)]
        p_pp, c_pp = t[(1, 1)]
        return c_mp * p_pp - c_pp * p_mp, abs(c_mp) + p_pp + abs(c_pp) + p_mp

    # The swap gap vanishes identically at zero strength, where the noise
    # rule of _first_root skips it.
    grid = sorted(config.theta_grid)
    evaluate(grid)

    def root(curve: Callable[[OutcomeTerms], tuple[float, float]]) -> float | None:
        points = [(theta, *curve(tables[theta])) for theta in grid]
        return _first_root(points, lambda theta: curve(terms(theta))[0])

    return [
        Crossing(CROSSING_SIGN_FLIP, root(branch_numerator)),
        Crossing(CROSSING_BRANCH_SWAP, root(branch_swap_gap)),
    ]


@dataclass(frozen=True)
class CountRecord:
    """Per-outcome photon counts for the input-state run and the two
    eigenstate calibration runs, plus everything needed to reproduce them."""

    setup: SetupParams
    input_angle_deg: float
    n_photons: int
    rng_seed: int
    counts_psi: Mapping[tuple[int, int], float]
    counts_plus: Mapping[tuple[int, int], float]
    counts_minus: Mapping[tuple[int, int], float]

    def __post_init__(self):
        _require_photons(self.n_photons)
        for name in ("counts_psi", "counts_plus", "counts_minus"):
            counts = dict(getattr(self, name))
            if set(counts) != set(OUTCOMES):
                raise InvalidInputError(f"{name} must cover exactly the four outcomes")
            if any(not math.isfinite(v) or v < 0 for v in counts.values()):
                raise InvalidInputError(f"{name} must be non-negative and finite")
            object.__setattr__(self, name, counts)

    def runs(self) -> dict[str, Mapping[tuple[int, int], float]]:
        return {"psi": self.counts_psi, "plus": self.counts_plus, "minus": self.counts_minus}


def _require_photons(n_photons: int) -> None:
    if not 1 <= n_photons <= _MAX_PHOTONS:
        raise InvalidInputError(f"n_photons must lie in [1, {_MAX_PHOTONS}], got {n_photons!r}")


def monte_carlo_counts(
    setup: SetupParams,
    input_angle_deg: float = DEFAULT_INPUT_ANGLE_DEG,
    n_photons: int = 1_000_000,
    rng_seed: int = 0,
) -> CountRecord:
    """Multinomial photon counts for the three runs of one strength setting.

    Run index 0 is the prepared input state, 1 and 2 are the P and M
    eigenstate calibrations; each run draws from its own generator seeded by
    (rng_seed, run index).
    """
    _require_photons(n_photons)
    if rng_seed < 0:
        raise InvalidInputError(f"rng_seed must be non-negative, got {rng_seed!r}")
    states = (
        make_linear_polarization(input_angle_deg),
        make_linear_polarization(45.0),
        make_linear_polarization(-45.0),
    )
    povm = sequential_povm(setup)
    draws = []
    for run_index, state in enumerate(states):
        pvals = np.array([born_probability(state, element) for element in povm])
        rng = np.random.default_rng((int(rng_seed), run_index))
        counts = rng.multinomial(int(n_photons), pvals / pvals.sum())
        draws.append({outcome: int(k) for outcome, k in zip(OUTCOMES, counts)})
    return CountRecord(
        setup=setup,
        input_angle_deg=float(input_angle_deg),
        n_photons=int(n_photons),
        rng_seed=int(rng_seed),
        counts_psi=draws[0],
        counts_plus=draws[1],
        counts_minus=draws[2],
    )


def estimate_from_counts(record: CountRecord) -> SweepRow:
    """Run the estimation pipeline on measured frequencies.

    Eigenstate weights of the input come from the known preparation angle, as
    in a calibrated experiment; outcome and confusion probabilities come from
    the counts.  Outcomes with no counts are marked unresolvable and excluded
    from the optimal-error sums without affecting the others.
    """
    n = record.n_photons
    frequencies = {}
    for name, counts in record.runs().items():
        total = sum(counts.values())
        if abs(total - n) > 1e-6 * max(1.0, n):
            raise InvalidInputError(
                f"counts for run {name!r} sum to {total!r}, expected n_photons={n}"
            )
        frequencies[name] = {outcome: counts[outcome] / n for outcome in OUTCOMES}

    mean_a = math.sin(2.0 * math.radians(record.input_angle_deg))
    p_plus_psi = 0.5 * (1.0 + mean_a)
    p_minus_psi = 0.5 * (1.0 - mean_a)
    mean = p_plus_psi - p_minus_psi

    plus, minus = frequencies["plus"], frequencies["minus"]
    terms = calibrated_terms(
        frequencies["psi"], {m: (plus[m], minus[m]) for m in OUTCOMES}, p_plus_psi, p_minus_psi
    )
    flip_plus = plus[(-1, 1)] + plus[(-1, -1)]
    flip_minus = minus[(1, 1)] + minus[(1, -1)]
    symmetric = symmetric_error_probability(flip_plus, flip_minus)
    # Sampling noise can push plug-in errors slightly negative, so the
    # reports pass unscreened.
    return _sweep_row(
        record.setup.theta_deg, 0.5 * (flip_plus + flip_minus), terms, 1.0, 1.0 - mean * mean,
        screen=lambda report: report,
        eps_sq_eigen=None if symmetric is None else 4.0 * symmetric,
    )


def bootstrap_standard_errors(
    record: CountRecord, n_resamples: int = 200, rng_seed: int = 0
) -> dict[str, float]:
    """Multinomial-bootstrap standard errors for the estimated row fields.

    Counts are resampled from the empirical frequencies of each run; fields
    that come back unresolvable in any resample are omitted from the result.
    """
    if n_resamples < 2:
        raise InvalidInputError("need at least two resamples for a standard error")
    n = record.n_photons
    frequencies = {
        name: np.array([counts[o] for o in OUTCOMES]) / sum(counts.values())
        for name, counts in record.runs().items()
    }
    rng = np.random.default_rng((int(rng_seed),))
    samples: dict[str, list[float]] = {}
    for _ in range(int(n_resamples)):
        resampled = {}
        for name, pvals in frequencies.items():
            draw = rng.multinomial(n, pvals / pvals.sum())
            resampled[name] = {o: int(k) for o, k in zip(OUTCOMES, draw)}
        row = estimate_from_counts(
            CountRecord(
                setup=record.setup,
                input_angle_deg=record.input_angle_deg,
                n_photons=n,
                rng_seed=record.rng_seed,
                counts_psi=resampled["psi"],
                counts_plus=resampled["plus"],
                counts_minus=resampled["minus"],
            )
        )
        for key, value in row_as_dict(row).items():
            samples.setdefault(key, []).append(value)
    return {
        key: float(np.std(values, ddof=1))
        for key, values in samples.items()
        if all(v is not None for v in values)
    }
