"""The tables of all five commands: sweeps, crossings, Monte Carlo runs,
reconstruction checks and quasi-probabilities over measurement strength.

Every table starts from one grid step: a single
:func:`~seqpol.instrument.effect_stack` over the grid of a :class:`SweepConfig`
(or over new bisection midpoints) gives the ``(N, 4)`` arrays P and c of each
input state against the PM target.  One estimate step makes their
``SWEEP_COLUMNS`` one ``(15, N)`` float array, NaN for an unresolvable estimate,
with :func:`~seqpol.analysis.error_columns` once per strategy.  Counts stay
int64 arrays from the draw to the estimate, a bootstrap takes one ``std`` over
all its resamples, and only the :data:`Table` view holds lists (``None`` for
NaN).  :func:`analytic_row`, :func:`monte_carlo_counts` and
:func:`estimate_from_counts` are one-point views of these steps.  Each counting
run draws from its own generator seeded by (seed, run index), so a point's
counts do not depend on the grid around it.  Draws sum to ``n_photons`` by
construction and a :class:`CountRecord` is checked once, when it is built, so
the estimate step checks no totals.
"""

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import QubitState, make_linear_polarization, make_stokes
from .analysis import (
    ReconstructionConfig,
    calibrated_columns,
    error_columns,
    moments,
    quasi_entries,
    reconstruct_correlation,
    stack_terms,
    symmetric_confusion,
    variation_states,
)
from .exceptions import InvalidInputError
from .instrument import (
    OUTCOMES,
    SetupParams,
    V_HV_DEFAULT,
    V_PM_DEFAULT,
    _require_thetas,
    effect_stack,
    pm_error_probabilities,
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

SWEEP_COLUMNS = [
    "theta_deg", "p_error",
    "p_pp", "p_pm", "p_mp", "p_mm",
    "aopt_m1_plus", "aopt_m1_minus",
    "aopt_pp", "aopt_pm", "aopt_mp", "aopt_mm",
    "eps_eigen", "eps_opt_m1", "eps_opt_m1m2",
]
RECONSTRUCT_COLUMNS = [
    "theta_deg", "lam", "m1", "m2", "p_outcome",
    "corr_reconstructed", "corr_direct", "abs_diff", "a_opt",
]
LGI_COLUMNS = ["theta_deg", *(f"q_{a}_{outcome}" for a in ("plus", "minus")
                              for outcome in ("pp", "pm", "mp", "mm")), "negativity"]

# An output table: column name -> the column's cells, in output order.
Table = dict[str, list]

CROSSING_SIGN_FLIP = "aopt[m1=-1] zero crossing"
CROSSING_BRANCH_SWAP = "aopt[m1=-1 m2=+1] overtakes aopt[m1=+1 m2=+1]"

# The target observable of every command, and the eigenstates of the calibration runs.
_PM = make_stokes("PM")
_CALIBRATION = (make_linear_polarization(45.0), make_linear_polarization(-45.0))


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
        grid = tuple(self.theta_grid)
        if not grid:
            raise InvalidInputError("theta_grid needs at least one strength setting")
        SetupParams(grid[0], self.v_pm, self.v_hv)  # the first setting, then the visibilities
        object.__setattr__(self, "theta_grid", tuple(_require_thetas(grid)))


def _estimate_columns(theta, p_error, p: np.ndarray, c: np.ndarray, mean_square: float,
                      nonnegative: bool, eps_eigen: np.ndarray | None = None) -> np.ndarray:
    """The ``SWEEP_COLUMNS`` of N settings from their ``(N, 4)`` tables of P and c, as
    one ``(15, N)`` float array with NaN for an unresolvable estimate.

    The errors belong to the eigenvalue assignment to m1 (``eps_eigen``
    where that is not NaN), the optimal estimate from m1 alone (P and c add
    over m2) and from both outcomes.  P gets the checks of an
    :class:`~seqpol.instrument.OutcomeDistribution`.
    """
    p_m1, c_m1 = (0.0 + x[:, ::2] + x[:, 1::2] for x in (p, c))
    opt_m1 = error_columns(p_m1, c_m1, mean_square, nonnegative=nonnegative)
    opt_m1m2 = error_columns(p, c, mean_square, nonnegative=nonnegative)
    eigen = np.full(len(p), np.nan) if eps_eigen is None else np.array(eps_eigen)
    todo = np.isnan(eigen)
    eigen[todo] = error_columns(p_m1[todo], c_m1[todo], mean_square, (1.0, -1.0),
                                nonnegative).epsilon_sq
    total = 0.0 + p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    if not (np.isfinite(p) & (p >= 0.0)).all() or (np.abs(total - 1.0) > 1e-9).any():
        raise InvalidInputError("outcome probabilities must be finite, >= 0 and sum to one")
    return np.array([theta, p_error, *p.T, *opt_m1.optimal.T, *opt_m1m2.optimal.T,
                     eigen, opt_m1.epsilon_sq, opt_m1m2.epsilon_sq], dtype=float)


def _estimate_table(columns: np.ndarray) -> Table:
    """The :data:`Table` view of estimate columns, ``None`` for an unresolvable estimate."""
    cells = columns.tolist()
    cells[6:12] = [[None if math.isnan(v) else v for v in estimates] for estimates in cells[6:12]]
    return dict(zip(SWEEP_COLUMNS, cells))


def _grid_terms(config: SweepConfig, states: Sequence[QubitState],
                thetas: Sequence[float] | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(N, 4)`` arrays P and c of each state against the PM target, from one
    effect stack over the grid of ``config`` or over ``thetas``."""
    effects = effect_stack(config.theta_grid if thetas is None else thetas, config.v_pm, config.v_hv)
    return [stack_terms(state, effects, _PM) for state in states]


def run_sweep(config: SweepConfig) -> Table:
    """The sweep table of the grid, fully analytic and deterministic."""
    state = make_linear_polarization(config.input_angle_deg)
    _, mean_square, _ = moments(state, _PM)
    ((p, c),) = _grid_terms(config, [state])
    p_error = pm_error_probabilities(config.theta_grid, config.v_pm)
    return _estimate_table(_estimate_columns(config.theta_grid, p_error, p, c, mean_square, True))


def analytic_row(params: SetupParams, input_angle_deg: float = DEFAULT_INPUT_ANGLE_DEG) -> dict:
    """One deterministic sweep row straight from the instrument model: a one-point sweep."""
    table = run_sweep(SweepConfig((params.theta_deg,), params.v_pm, params.v_hv, input_angle_deg))
    return {key: cells[0] for key, cells in table.items()}


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


def _first_root(thetas: list[float], values: list[float], scales: list[float],
                f: Callable[[float], float]) -> float | None:
    """First bracketed sign change of a curve sampled at ``thetas``, with noise ``scales``.

    Values within ``NOISE_EPS`` times their scale carry no sign and are
    skipped, so a curve that is zero up to rounding has no root.  The
    bracket is refined by bisection on ``f``.
    """
    last = None
    for theta, value, scale in zip(thetas, values, scales):
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
    # Both curves' values per strength: the grid in one stack, then each new
    # bisection midpoint once.
    values: dict[float, list[float]] = {}

    def curves(thetas) -> tuple[list, list]:
        """Both curves over ``thetas`` and their noise scales, each as two lists."""
        ((p, c),) = _grid_terms(config, [state], thetas)
        curve = np.stack([c[:, 3], c[:, 2] * p[:, 0] - c[:, 0] * p[:, 2]])
        values.update(zip(thetas, curve.T.tolist()))
        gap_scale = np.abs(c[:, 2]) + p[:, 0] + np.abs(c[:, 0]) + p[:, 2]
        return curve.tolist(), [[1.0] * len(c), gap_scale.tolist()]

    def value(theta: float, k: int) -> float:
        if theta not in values:
            curves((theta,))
        return values[theta][k]

    # The swap gap vanishes identically at zero strength, where the noise
    # rule of _first_root skips it.
    grid = sorted(config.theta_grid)
    grid_values, scales = curves(grid)
    return [Crossing(description, _first_root(grid, grid_values[k], scales[k],
                                              lambda theta, k=k: value(theta, k)))
            for k, description in enumerate((CROSSING_SIGN_FLIP, CROSSING_BRANCH_SWAP))]


def run_crossings(config: SweepConfig) -> Table:
    """The table of :func:`find_crossings`: one row per crossing."""
    crossings = find_crossings(config)
    return {"description": [c.description for c in crossings],
            "theta_deg": [c.theta_deg for c in crossings]}


def run_reconstruct(config: SweepConfig, lam: float) -> Table:
    """Reconstructed against direct correlations Re<psi|E_m A|psi> over the grid, with
    ``lam`` the input-state variation; rows by strength, then by outcome."""
    psi = make_linear_polarization(config.input_angle_deg)
    reconstruction = ReconstructionConfig(lam)
    plus_state, minus_state = variation_states(psi, _PM, reconstruction)
    mean_a, mean_a2, _ = moments(psi, _PM)
    (p, c), (p_plus, _), (p_minus, _) = _grid_terms(config, [psi, plus_state, minus_state])
    reconstructed = reconstruct_correlation(p_plus.ravel(), p_minus.ravel(), mean_a, mean_a2,
                                            reconstruction)
    a_opt = error_columns(p, c, mean_a2).optimal.ravel().tolist()
    return dict(zip(RECONSTRUCT_COLUMNS, (
        np.repeat(config.theta_grid, len(OUTCOMES)).tolist(),
        [lam] * p.size,
        *np.tile(OUTCOMES, (len(p), 1)).T.tolist(),
        p.ravel().tolist(),
        reconstructed.tolist(),
        c.ravel().tolist(),
        np.abs(reconstructed - c.ravel()).tolist(),
        [None if math.isnan(value) else value for value in a_opt],
    )))


def run_lgi(config: SweepConfig) -> Table:
    """The quasi-probabilities of every outcome and both target eigenvalues over the
    grid, with a negativity flag per strength."""
    ((p, c),) = _grid_terms(config, [make_linear_polarization(config.input_angle_deg)])
    entries, negativity = quasi_entries(p, c)
    # (N, a, outcome) -> one column per (a, outcome), a = +1 first
    quasi = entries.transpose(1, 2, 0).reshape(-1, len(p)).tolist()
    return {"theta_deg": list(config.theta_grid), **dict(zip(LGI_COLUMNS[1:-1], quasi)),
            "negativity": negativity.tolist()}


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
        angle = self.input_angle_deg
        if not isinstance(angle, (int, float)) or not math.isfinite(angle):
            raise InvalidInputError(f"input_angle_deg must be finite, got {angle!r}")
        _require_integer("rng_seed", self.rng_seed, 0)
        n = _require_integer("n_photons", self.n_photons, 1, _MAX_PHOTONS)
        for name in ("counts_psi", "counts_plus", "counts_minus"):
            counts = dict(getattr(self, name))
            if set(counts) != set(OUTCOMES):
                raise InvalidInputError(f"{name} must cover exactly the four outcomes")
            if any(not math.isfinite(v) or v < 0 for v in counts.values()):
                raise InvalidInputError(f"{name} must be non-negative and finite")
            object.__setattr__(self, name, counts)
        for run, counts in self.runs().items():
            # in outcome order as Python numbers, so int totals are exact at any size
            total = np.array([counts[o] for o in OUTCOMES], dtype=object).sum()
            if abs(total - n) > 1e-6 * max(1.0, n):
                raise InvalidInputError(f"counts for run {run!r} sum to {total!r}, "
                                        f"expected n_photons={n}")

    def runs(self) -> dict[str, Mapping[tuple[int, int], float]]:
        return {"psi": self.counts_psi, "plus": self.counts_plus, "minus": self.counts_minus}


def _require_integer(name: str, value, least: int, most: float = math.inf) -> int:
    """``value`` as an int, once it is an integer, not a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInputError(f"{name} must be an integer of at least {least}, got {value!r}")
    if value > most:
        raise InvalidInputError(f"{name} must lie in [{least}, {most}], got {value!r}")
    return int(value)


def _draw_counts(config: SweepConfig, n_photons: int, seed: int) -> np.ndarray:
    """The counts of :func:`monte_carlo_counts` at every grid point, point n with seed + n,
    as an int64 array shaped (N, run, outcome)."""
    n_photons = _require_integer("n_photons", n_photons, 1, _MAX_PHOTONS)
    seed = _require_integer("rng_seed", seed, 0)
    states = [make_linear_polarization(config.input_angle_deg), *_CALIBRATION]
    pvals = np.stack([p for p, _ in _grid_terms(config, states)], axis=1)
    return np.array([[np.random.default_rng((seed + n, run)).multinomial(n_photons, p / p.sum())
                      for run, p in enumerate(point)] for n, point in enumerate(pvals)])


def monte_carlo_counts(setup: SetupParams, input_angle_deg: float, n_photons: int,
                       rng_seed: int) -> CountRecord:
    """Multinomial photon counts for the three runs of one strength setting.

    Run index 0 is the prepared input state, 1 and 2 are the P and M
    eigenstate calibrations; each run draws from its own generator seeded by
    (rng_seed, run index).  The one-point view of the grid draw.
    """
    config = SweepConfig((setup.theta_deg,), setup.v_pm, setup.v_hv, input_angle_deg)
    (runs,) = _draw_counts(config, n_photons, rng_seed).tolist()
    return CountRecord(setup, float(input_angle_deg), int(n_photons), int(rng_seed),
                       *(dict(zip(OUTCOMES, counts)) for counts in runs))


def _count_columns(theta, input_angle_deg: float, n: int, counts: np.ndarray) -> np.ndarray:
    """The estimate columns of N count tables shaped (N, run, outcome), runs as in
    :meth:`CountRecord.runs`: int64 draws or a record's numbers as objects, with totals
    checked where they enter, divided exactly as Python ``k / n``.  A symmetric
    eigenstate confusion gives eps_eigen 4 p_error."""
    # Counts and n up to 2**53 are exact floats, so numpy's quotient is Python's k / n
    frequencies = (counts if max(n, counts.max()) <= 2**53 else counts.astype(object)) / n
    psi, plus, minus = frequencies.astype(float).transpose(1, 0, 2)
    mean_a = math.sin(2.0 * math.radians(input_angle_deg))
    p, c = calibrated_columns(psi, plus, minus, 0.5 * (1.0 + mean_a), 0.5 * (1.0 - mean_a))
    p_error, symmetric = symmetric_confusion(plus[:, 2] + plus[:, 3], minus[:, 0] + minus[:, 1])
    # Sampling noise can push plug-in errors slightly negative: no sign check.
    return _estimate_columns(theta, p_error, p, c, 1.0, nonnegative=False,
                             eps_eigen=np.where(symmetric, 4.0 * p_error, np.nan))


def run_montecarlo(config: SweepConfig, n_photons: int, seed: int) -> Table:
    """The sweep table estimated from simulated counts; grid point n draws with seed + n."""
    grid = config.theta_grid
    counts = _draw_counts(config, n_photons, seed)
    return _estimate_table(_count_columns(grid, config.input_angle_deg, n_photons, counts))


def estimate_from_counts(record: CountRecord) -> dict:
    """Run the estimation pipeline on measured frequencies.

    Eigenstate weights of the input come from the known preparation angle, as
    in a calibrated experiment; outcome and confusion probabilities come from
    the counts.  Outcomes with no counts are marked unresolvable and excluded
    from the optimal-error sums without affecting the others.  The one-row
    view of the count table: the record, consistent since it was built,
    gives its counts as one object array, divided as Python ``k / n``.
    """
    counts = np.array([[[run[o] for o in OUTCOMES] for run in record.runs().values()]],
                      dtype=object)
    table = _estimate_table(_count_columns([record.setup.theta_deg], record.input_angle_deg,
                                           record.n_photons, counts))
    return {key: cells[0] for key, cells in table.items()}


def bootstrap_standard_errors(record: CountRecord, n_resamples: int,
                              rng_seed: int) -> dict[str, float]:
    """Multinomial-bootstrap standard errors for the estimated row fields.

    Counts are resampled from the empirical frequencies of each run, every
    resample in one draw, and estimated as one table; fields that come back
    unresolvable in any resample are omitted from the result.
    """
    n_resamples = _require_integer("n_resamples", n_resamples, 2)
    rng_seed = _require_integer("rng_seed", rng_seed, 0)
    n = record.n_photons
    frequencies = [np.array([counts[o] for o in OUTCOMES]) / sum(counts.values())
                   for counts in record.runs().values()]
    rng = np.random.default_rng((rng_seed,))
    draws = rng.multinomial(n, [f / f.sum() for f in frequencies], size=(n_resamples, 3))
    columns = _count_columns([record.setup.theta_deg] * n_resamples, record.input_angle_deg,
                             n, draws)
    errors = zip(SWEEP_COLUMNS, np.std(columns, axis=1, ddof=1).tolist(), np.isnan(columns).any(1))
    return {key: error for key, error, unresolved in errors if not unresolved}
