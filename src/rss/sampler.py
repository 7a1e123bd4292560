"""Walk-jump mixture kernel over logit matrices.

Each step flips a coin: with probability 1 - p_jump a gradient-drift
Gaussian proposal (MALA) explores locally; otherwise a multi-site token-swap
proposal guided by masked-model conditionals crosses energy barriers. Both
kernels carry exact Metropolis-Hastings corrections, so the chain targets
pi(logits) proportional to exp(-beta * E(logits)).

Acceptance probabilities are computed entirely in log space; exp is taken
only at the final Bernoulli draw. A proposal is a candidate state: a step
returns the accepted proposal or the same state object, whose cached
(energy, gradient) pair always matches a fresh evaluation of its logits and
whose jump terms (``ChainState.jump_terms``) are computed once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .core import LOG_FLOOR, Rng, RowSoftmax, as_logits
from .energy import EnergyModel, CountingEnergy
from .softplm import MaskedSequenceModel
from .textio import read_blocks, write_blocks

MASK_MODES = ("paper", "exact")
MASK_EPSILON = 1e-8     # stabilizer in mask_probabilities' denominator; not a setting
_SCALE_BITS = 900       # a size-table row whose top entry is below 2**-900 is rescaled
_SCALE_BELOW = 2.0 ** -_SCALE_BITS


class MaskSamplingError(RuntimeError):
    """No site set with 1 <= |S| <= s_max has positive probability: Z(p) = 0."""


@dataclass
class SamplerConfig:
    """All scalar knobs of the chain.

    mask_mode selects how the mask-selection mass enters acceptance:
    ``paper`` uses the raw Bernoulli product; ``exact`` (default) divides by
    Z(p) = P(1 <= |S| <= s_max), because the mask is drawn from the Bernoulli
    product conditioned on 1 <= |S| <= s_max (see ``MaskLaw``), and is
    required for exact reversibility.
    """

    beta: float
    eta: float
    p_jump: float = 0.1
    kappa: float = 0.5
    gamma: float = 2.0
    tau: float = 1.0
    steps: int = 1000
    s_max: int = 3
    mask_mode: str = "exact"
    adapt_eta: bool = False
    burn_in: int = 0

    def __post_init__(self):
        for name in ("beta", "eta", "gamma", "tau"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be {'positive' if value <= 0 else 'finite'}")
        if not 0.0 <= self.p_jump <= 1.0:
            raise ValueError("p_jump must lie in [0, 1]")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"mask_mode must be one of {MASK_MODES}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


@dataclass
class ChainState:
    """Current logits with their cached energy, gradient and jump terms.

    ``evaluated`` builds every state the chain evaluates. The state keeps
    its evaluation's row softmax, ``rows``, where ``jump_terms`` finds a
    prior term's log-conditionals, and ``finite``: False vetoes it.
    """

    logits: np.ndarray
    energy: float
    gradient: np.ndarray
    finite: bool = field(default=True, kw_only=True)
    rows: RowSoftmax | None = field(default=None, kw_only=True, repr=False, compare=False)
    _jump: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @classmethod
    def evaluated(cls, logits: np.ndarray, energy: EnergyModel, **fields) -> "ChainState":
        """The state at finite ``logits`` after one evaluation of ``energy``,
        in which overflow gives ``finite`` False, not a warning."""
        rows = RowSoftmax(logits)
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = energy.evaluate(logits, rows)
            finite = bool(np.isfinite(value) and np.all(np.isfinite(grad)))
        return cls(logits, value, grad, finite=finite, rows=rows, **fields)

    @classmethod
    def initialize(cls, logits, energy_model: EnergyModel) -> "ChainState":
        state = cls.evaluated(as_logits(logits, energy_model.shape), energy_model)
        if not state.finite:
            raise ValueError("the start state's energy or gradient is not finite")
        return state

    def jump_terms(self, cfg: SamplerConfig, model: MaskedSequenceModel) -> tuple:
        """(law, log_cond): the state's ``MaskLaw`` and its masked-model
        log-conditionals at cfg.tau, computed once per key (kappa, s_max,
        tau, model). The log-conditionals are those the state's evaluation
        kept under ``(model, cfg.tau)``, the same bits, or else come from a
        forward of their own."""
        key = (cfg.kappa, cfg.s_max, cfg.tau, model)
        if self._jump[0] != key:
            law = MaskLaw(mask_probabilities(self.gradient, cfg.kappa), cfg.s_max)
            log_cond = self.rows and self.rows.log_conditionals.get((model, cfg.tau))
            if log_cond is None:
                log_cond = model.log_conditionals_from_logits(self.logits, cfg.tau)
            self._jump = key, (law, log_cond)
        return self._jump[1]


@dataclass
class MoveRecord:
    """What one step did: its trace row less the step number and the energy."""

    kind: str                       # "walk" or "jump"
    log_alpha: float                # min(0, log MH ratio); -inf for vetoed moves
    accepted: bool
    mask_size: int                  # sites swapped by a jump; 0 for a walk


# --- walk kernel (MALA) -----------------------------------------------------


def gaussian_log_density(x: np.ndarray, mean: np.ndarray, var: float) -> float:
    """log N(x; mean, var * I) for matrix-shaped states."""
    diff = np.asarray(x, dtype=np.float64) - mean
    n = diff.size
    return float(-0.5 * n * np.log(2.0 * np.pi * var) - (diff * diff).sum() / (2.0 * var))


@dataclass
class WalkProposal(ChainState):
    log_q_forward: float = np.nan
    log_q_reverse: float = np.nan


def walk_propose(
    state: ChainState, cfg: SamplerConfig, energy: EnergyModel, rng: Rng
) -> WalkProposal:
    """Drifted Gaussian proposal plus both proposal log-densities.

    proposal = logits - eta * grad + sqrt(2 eta / beta) * xi. The reverse
    density needs the gradient at the proposal, so the proposal is evaluated
    here once; its (energy, gradient) pair serves acceptance and, if it is
    accepted, the next state. A non-finite proposal or evaluation yields
    finite=False, which acceptance turns into a recorded veto, not a crash.
    """
    var = 2.0 * cfg.eta / cfg.beta
    noise = rng.normal(state.logits.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_forward = state.logits - cfg.eta * state.gradient
        proposed = mean_forward + np.sqrt(var) * noise

    if not np.all(np.isfinite(proposed)):
        return WalkProposal(proposed, np.nan, np.full_like(state.logits, np.nan), finite=False)
    proposal = WalkProposal.evaluated(proposed, energy)
    if proposal.finite:
        proposal.log_q_forward = gaussian_log_density(proposed, mean_forward, var)
        proposal.log_q_reverse = gaussian_log_density(
            state.logits, proposed - cfg.eta * proposal.gradient, var)
    return proposal


def walk_accept(state: ChainState, proposal: WalkProposal, cfg: SamplerConfig) -> float:
    """log acceptance: min(0, -beta (E' - E) + log q_rev - log q_fwd)."""
    if not proposal.finite:
        return -np.inf
    ratio = (
        -cfg.beta * (proposal.energy - state.energy)
        + proposal.log_q_reverse
        - proposal.log_q_forward
    )
    return min(0.0, ratio)


# --- jump kernel (masked-model guided swaps) --------------------------------


def mask_probabilities(gradient: np.ndarray, kappa: float) -> np.ndarray:
    """Per-site selection probabilities from gradient row norms.

    p_i = min(1, kappa * ||g_i|| / (max_j ||g_j|| + MASK_EPSILON)). If every row
    norm is zero the formula gives all-zero probabilities and no mask could
    ever be drawn; that degenerate case falls back to uniform p_i = kappa/L.
    """
    grad = np.asarray(gradient, dtype=np.float64)
    norms = np.sqrt((grad * grad).sum(axis=1))
    top = norms.max()
    if top == 0.0:
        return np.full(grad.shape[0], kappa / grad.shape[0])
    return np.minimum(1.0, kappa * norms / (top + MASK_EPSILON))


class MaskLaw:
    """The jump's site-mask law at one state: the Bernoulli product over the
    sites' probabilities ``probs`` (``mask_probabilities``), conditioned on
    1 <= |S| <= s_max. The constructor computes the floored ``log p`` and
    ``log(1 - p)``, the size table, ``z`` and ``log_z`` = log Z(p), Z(p) =
    P(1 <= |S| <= s_max), once, for ``draw`` and ``log_mass``; each raises
    MaskSamplingError if it needs Z(p) and Z(p) = 0.

    ``table[i][k] * 2**exponents[i]`` = P(exactly k of sites 0..i-1 are
    picked), k <= s_max, in plain floats, O(L * s_max): each row is a copy
    of the last, updated from its top entry down (sets beyond s_max are
    dropped). A row whose largest entry falls below 2**-900 is multiplied
    by 2**900, exactly, and its exponent lowered by 900, so no entry sinks
    into subnormals and the law is right at every L; below Z(p) of about
    1e-271 no row is rescaled. ``z`` is the last row's scaled sum, Z(p) =
    z * 2**exponents[-1].
    """

    def __init__(self, probs: np.ndarray, s_max: int):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.s_max = s_max
        self.log_in = np.log(np.maximum(self.probs, LOG_FLOOR))
        self.log_out = np.log(np.maximum(1.0 - self.probs, LOG_FLOOR))
        cap = min(s_max, self.probs.size)
        row, exponent = [1.0] + [0.0] * cap, 0
        self.table, self.exponents = [row], [exponent]
        downward = range(cap, 0, -1)
        for p in self.probs.tolist():
            q = 1.0 - p
            row = row.copy()
            for k in downward:
                row[k] = row[k] * q + row[k - 1] * p
            row[0] *= q
            if row[0] < _SCALE_BELOW and 0.0 < max(row) < _SCALE_BELOW:  # max(row) >= row[0]
                row = [math.ldexp(v, _SCALE_BITS) for v in row]
                exponent -= _SCALE_BITS
            self.table.append(row)
            self.exponents.append(exponent)
        self.z = float(np.sum(row[1:]))
        self.log_z = (float(np.log(self.z)) + exponent * math.log(2.0) if self.z > 0.0
                      else -np.inf)

    def _require_mask(self) -> None:
        if self.z <= 0.0:
            raise MaskSamplingError(f"no mask with 1 <= |S| <= {self.s_max} has positive "
                                    f"probability (sum p = {self.probs.sum():.3g})")

    def log_mass(self, sites: np.ndarray, mask_mode: str) -> float:
        """log mass of a site set under ``mask_mode``, the one pricing rule.

        ``paper``: raw product prod p_i^{i in S} (1-p_i)^{i not in S}.
        ``exact``: raw product minus log Z(p), the probability of S under
        this law; -inf for a set the law never draws (|S| outside
        [1, s_max]). ``SamplerConfig`` is where a mode name is checked.
        """
        member = np.zeros(self.probs.size, dtype=bool)
        member[np.asarray(sites, dtype=np.int64)] = True
        raw = float(np.where(member, self.log_in, self.log_out).sum())
        if mask_mode == "paper":
            return raw
        self._require_mask()
        if not 1 <= np.count_nonzero(member) <= self.s_max:
            return -np.inf
        return raw - self.log_z

    def draw(self, rng: Rng, mask_mode: str) -> tuple[np.ndarray, float]:
        """A site set and its ``log_mass`` under ``mask_mode``.

        Conditional-Bernoulli sampling (Chen, Dempster & Liu 1994) from the
        size table: |S| = k by ``Rng.inverse_cdf`` over P(|S| = k), k = 1..
        s_max, summed in index order; then sites from the last to the first,
        site i taken with probability p_i P(k-1 among sites < i) / P(k among
        sites <= i) while k remain to place. One uniform for the size and at most
        one per site. Returns the sites sorted.
        """
        self._require_mask()
        table, exponents = self.table, self.exponents
        k = 1 + rng.inverse_cdf(np.cumsum(table[-1][1:]))
        picked = []
        plist = self.probs.tolist()
        for i in range(self.probs.size - 1, -1, -1):
            # rows i and i + 1 lined up on row i + 1's exponent
            below = math.ldexp(table[i][k - 1], exponents[i] - exponents[i + 1])
            if rng.uniform() * table[i + 1][k] < plist[i] * below:
                picked.append(i)
                k -= 1
                if k == 0:
                    break
        sites = np.array(picked[::-1], dtype=np.int64)
        return sites, self.log_mass(sites, mask_mode)


def mask_normalizer(probs: np.ndarray, s_max: int) -> float:
    """Z(p) = P(1 <= |S| <= s_max) for independent Bernoulli site draws
    (0.0 where it underflows; ``MaskLaw`` keeps it in scaled form)."""
    law = MaskLaw(probs, s_max)
    return math.ldexp(law.z, law.exponents[-1])


def mask_log_mass(sites: np.ndarray, probs: np.ndarray, s_max: int, mask_mode: str) -> float:
    """``MaskLaw(probs, s_max).log_mass(sites, mask_mode)``."""
    return MaskLaw(probs, s_max).log_mass(sites, mask_mode)


def sample_mask(probs: np.ndarray, s_max: int, rng: Rng,
                mask_mode: str = "exact") -> tuple[np.ndarray, float]:
    """``MaskLaw(probs, s_max).draw(rng, mask_mode)``."""
    return MaskLaw(probs, s_max).draw(rng, mask_mode)


@dataclass
class JumpProposal(ChainState):
    sites: np.ndarray
    forward_tokens: np.ndarray
    reference_tokens: np.ndarray
    log_mass_forward: float
    log_plm_forward: float


def jump_propose(
    state: ChainState,
    cfg: SamplerConfig,
    energy: EnergyModel,
    model: MaskedSequenceModel,
    rng: Rng,
) -> JumpProposal:
    """Swap proposal: for each masked site, push gamma of logit mass from a
    uniform reference token onto a token drawn from the masked conditional.

    Sites outside the mask are untouched. Draw order is fixed (sites
    ascending; forward token then reference token) so runs replay exactly.
    A forward token is ``Rng.inverse_cdf``'s draw on its site's conditional,
    whose rows are finite and positive by construction.
    """
    law, log_cond = state.jump_terms(cfg, model)
    sites, log_mass = law.draw(rng, cfg.mask_mode)

    masked = log_cond[sites]
    cdfs = np.cumsum(np.exp(masked), axis=1)
    vocab = state.logits.shape[1]

    forward, reference = [], []
    log_plm = 0.0
    for pos in range(sites.size):
        token = rng.inverse_cdf(cdfs[pos])
        forward.append(token)
        reference.append(rng.integer(vocab))
        log_plm += float(masked[pos, token])
    forward = np.array(forward, dtype=np.int64)
    reference = np.array(reference, dtype=np.int64)
    swapped = forward != reference  # identity swaps leave the row bit-identical
    proposed = state.logits.copy()
    proposed[sites[swapped], forward[swapped]] += cfg.gamma
    proposed[sites[swapped], reference[swapped]] -= cfg.gamma

    return JumpProposal.evaluated(proposed, energy, sites=sites, forward_tokens=forward,
                                  reference_tokens=reference, log_mass_forward=log_mass,
                                  log_plm_forward=log_plm)


def jump_accept(
    state: ChainState,
    proposal: JumpProposal,
    cfg: SamplerConfig,
    model: MaskedSequenceModel,
) -> float:
    """log acceptance of a swap proposal.

    min(0, -beta (E' - E) + log m(S | proposed) - log m(S | current)
           + sum_i [log p_i(y-_i | proposed) - log p_i(y+_i | current)])
    with mask masses m under cfg.mask_mode. The reverse terms are the
    proposal's own jump terms, which it keeps if it becomes the next state.
    """
    if not proposal.finite:
        return -np.inf
    law_rev, log_cond_rev = proposal.jump_terms(cfg, model)
    log_mass_rev = law_rev.log_mass(proposal.sites, cfg.mask_mode)
    log_plm_rev = float(log_cond_rev[proposal.sites, proposal.reference_tokens].sum())
    ratio = (
        -cfg.beta * (proposal.energy - state.energy)
        + log_mass_rev
        - proposal.log_mass_forward
        + log_plm_rev
        - proposal.log_plm_forward
    )
    return min(0.0, ratio)


# --- one step and the main loop ----------------------------------------------


def step(
    state: ChainState,
    cfg: SamplerConfig,
    energy: EnergyModel,
    model: MaskedSequenceModel | None,
    rng: Rng,
) -> tuple[ChainState, MoveRecord]:
    """One mixture-kernel transition. Draw order: kernel coin, proposal
    draws, acceptance uniform. Returns the accepted proposal or ``state`` itself."""
    if rng.uniform() > cfg.p_jump:
        proposal = walk_propose(state, cfg, energy, rng)
        log_alpha = walk_accept(state, proposal, cfg)
        kind, mask_size = "walk", 0
    else:
        if model is None:
            raise ValueError("jump kernel requires a masked sequence model")
        proposal = jump_propose(state, cfg, energy, model, rng)
        log_alpha = jump_accept(state, proposal, cfg, model)
        kind, mask_size = "jump", int(proposal.sites.size)

    accepted = bool(rng.uniform() < np.exp(log_alpha))
    return (proposal if accepted else state), MoveRecord(kind, log_alpha, accepted, mask_size)


@dataclass
class ChainSummary:
    """A finished chain: its per-step record and what cannot be derived from it.

    Step t + 1 of the run is index t of ``jumped`` and ``accepted`` and index
    t + 1 of ``energies`` (index 0 is the initial state). Acceptance counts,
    the energy minimum and the post-burn-in window are derived from these
    arrays, not kept alongside them.
    """

    steps: int
    burn_in: int
    jumped: np.ndarray              # bool per step: the jump kernel was used
    accepted: np.ndarray            # bool per step: the proposal was accepted
    final_state: ChainState
    energies: np.ndarray            # energy after each step, length steps + 1
    snapshots: list                 # (step, logits) at the thinning stride
    eta_final: float
    energy_evaluations: int

    def moves(self, kind: str, post_burn_in: bool = False) -> tuple[int, int]:
        """(proposals, accepts) of the "walk" or "jump" kernel over the whole
        run, or over the steps after ``burn_in`` only."""
        if kind not in ("walk", "jump"):
            raise ValueError(f"move kind must be 'walk' or 'jump', got {kind!r}")
        start = self.burn_in if post_burn_in else 0
        chosen = self.jumped[start:] == (kind == "jump")
        return int(chosen.sum()), int(self.accepted[start:][chosen].sum())

    def acceptance(self, kind: str, post_burn_in: bool = False) -> float | None:
        """accepts / proposals from ``moves``; None when there were no proposals."""
        proposals, accepts = self.moves(kind, post_burn_in)
        return accepts / proposals if proposals else None

    def post_burn_in_energies(self) -> np.ndarray:
        return self.energies[self.burn_in + 1 :]


TRACE_HEADER = "step,kind,energy,log_alpha,accepted,mask_size"


def run_chain(
    logits0,
    cfg: SamplerConfig,
    energy: EnergyModel,
    model: MaskedSequenceModel | None = None,
    rng: Rng | None = None,
    trace=None,
    snapshot_stride: int = 50,
) -> ChainSummary:
    """Run cfg.steps mixture-kernel transitions from logits0.

    If cfg.adapt_eta, the walk step size is scaled by 1.02 after each
    accepted walk and 0.98 after each rejected walk, but only during the
    first cfg.burn_in steps; eta is frozen afterwards so the post-burn-in
    kernel is exactly stationary. Each step's kernel, outcome and resulting
    energy go into the summary's per-step arrays. Snapshots of the logits
    are kept every ``snapshot_stride`` steps. ``trace`` is an open text
    handle, or None; rows are step,kind,energy,log_alpha,accepted,mask_size
    with the energy of the state after the move.
    """
    if rng is None:
        rng = Rng(0)
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    if cfg.p_jump > 0 and cfg.steps > 0 and model is None:
        raise ValueError("p_jump > 0 requires a masked sequence model")
    counting = CountingEnergy(energy)
    local_cfg = dataclasses.replace(cfg)
    state = ChainState.initialize(logits0, counting)

    if trace is not None:
        trace.write(TRACE_HEADER + "\n")

    jumped = np.zeros(local_cfg.steps, dtype=bool)
    accepted = np.zeros(local_cfg.steps, dtype=bool)
    energies = np.empty(local_cfg.steps + 1, dtype=np.float64)
    energies[0] = state.energy
    snapshots = []

    try:
        for t in range(local_cfg.steps):
            state, record = step(state, local_cfg, counting, model, rng)
            jumped[t] = record.kind == "jump"
            accepted[t] = record.accepted
            if local_cfg.adapt_eta and t < local_cfg.burn_in and record.kind == "walk":
                local_cfg.eta *= 1.02 if record.accepted else 0.98
            energies[t + 1] = state.energy
            if (t + 1) % snapshot_stride == 0:
                snapshots.append((t + 1, state.logits.copy()))
            if trace is not None:
                trace.write(
                    f"{t + 1},{record.kind},{state.energy!r},"
                    f"{record.log_alpha!r},{int(record.accepted)},{record.mask_size}\n"
                )
    finally:
        if trace is not None:
            trace.flush()

    return ChainSummary(
        steps=local_cfg.steps,
        burn_in=local_cfg.burn_in,
        jumped=jumped,
        accepted=accepted,
        final_state=state,
        energies=energies,
        snapshots=snapshots,
        eta_final=local_cfg.eta,
        energy_evaluations=counting.calls,
    )


# --- chain diagnostics --------------------------------------------------------


@dataclass
class AutocorrResult:
    ess: float
    tau_int: float          # integrated autocorrelation time, 1 + 2 sum rho_k
    degenerate: bool = False


def ess_and_autocorr(trace) -> AutocorrResult:
    """Effective sample size via the initial-positive-sequence estimator.

    Pairwise autocorrelation sums Gamma_m = rho_{2m} + rho_{2m+1} are
    accumulated while positive; tau_int = 1 + 2 sum_{k>=1} rho_k over the
    kept window and ESS = N / tau_int. A constant series has no usable
    autocorrelation and is reported as ESS = N with ``degenerate`` set.
    """
    x = np.asarray(trace, dtype=np.float64)
    if x.ndim != 1 or x.size < 10:
        raise ValueError("trace must be a 1-D series with at least 10 points")
    n = x.size
    x = x - x.mean()
    var = float((x * x).sum() / n)
    if var == 0.0:
        return AutocorrResult(ess=float(n), tau_int=1.0, degenerate=True)

    # biased autocovariance via FFT
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    rho = acov / acov[0]

    total = 0.0
    m = 0
    while 2 * m + 1 < n:
        gamma = rho[2 * m] + rho[2 * m + 1]
        if gamma <= 0.0:
            break
        total += gamma
        m += 1
    tau = max(2.0 * total - 1.0, 1e-3)
    return AutocorrResult(ess=float(n / tau), tau_int=float(tau))


def save_snapshots(path, snapshots, shape: tuple[int, int], comment: str | None = None) -> None:
    """Write thinned logit snapshots in the shared text-block format."""
    length, vocab = shape
    write_blocks(path, ["logit-snapshots v1", comment], {"L": length, "K": vocab},
                 [(f"snapshot {step_idx}", logits) for step_idx, logits in snapshots])


def load_snapshots(path) -> list[tuple[int, np.ndarray]]:
    """The (step, logits) snapshots a file holds. Each ``[snapshot t]`` block
    must name one integer step and be L x K as the header gives; every
    failure is a ValueError whose message starts with the path."""
    _, blocks = read_blocks(path, {"L": int, "K": int}, {"snapshot": ("L", "K", None)})
    snapshots = []
    for tag, block in blocks:
        try:
            (step,) = map(int, tag.split()[1:])
        except ValueError:  # not one integer
            raise ValueError(f"{path}: block [{tag}] must name its step as one integer") from None
        snapshots.append((step, block))
    return snapshots
