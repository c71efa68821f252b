"""Density-matrix kinetics of the optical cycle GS <-> ES <-> metastable state.

The state is (rho_g, rho_e, N_m): two Hermitian 4x4 matrices plus the scalar
metastable population.  Its evolution is linear, so we coordinatize each
Hermitian matrix by 16 real numbers (4 diagonal, 6 upper-triangle real parts,
6 upper-triangle imaginary parts) and assemble one real 33x33 generator.

Term by term (time in us, Hamiltonians in MHz, rates in 1/us):

    drho_g/dt = 2*pi*i*[rho_g, H_g] + recomb*rho_e - pump*rho_g
                - gamma_g*(rho_g - Tr(rho_g)/4)
                + (N_m/2)*(k_g_half*P_half + k_g_three*P_three_half)
    drho_e/dt = 2*pi*i*[rho_e, H_e] - recomb*rho_e + pump*rho_g
                - gamma_e*(rho_e - Tr(rho_e)/4)
                - k_e_half*{P_half, rho_e} - k_e_three*{P_three_half, rho_e}
    dN_m/dt   = k_e_half*Tr(P_half rho_e) + k_e_three*Tr(P_three_half rho_e)
                - (k_g_half + k_g_three)*N_m

with branch rates k_{g,e}^{half,three} = gamma_ms*(1 +/- eta_{g,e}) (plus sign
for the +/-1/2 doublet) and {A,B} = (AB+BA)/2.  Total population
Tr(rho_g) + Tr(rho_e) + N_m is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import CenterParams, build_hamiltonian, eigensystem
from .spin_algebra import commutator, make_spin_operators, sym_anticommutator

TWO_PI = 2.0 * np.pi

# Fixed row-major ordering of the 6 upper-triangle index pairs of a 4x4.
UPPER_ROWS, UPPER_COLS = np.triu_indices(4, 1)

NDIM = 33  # 16 (rho_g) + 16 (rho_e) + 1 (N_m)

# Fields per block of a batched sweep.  A block's (SWEEP_BLOCK, 33, 33)
# generator stack and its (SWEEP_BLOCK, 33, 4, 4) probe images bound the
# memory of a sweep, whatever the length of its field grid.  Sweep time is
# flat from 8 to 241 fields a block; 64 adds about 3.5 MB to a sweep's peak.
SWEEP_BLOCK = 64

# Singular values below NULL_RTOL * |G| count as zero modes of a generator,
# and a steady state's residual |G x| must stay below NULL_RTOL * |G|.
NULL_RTOL = 1e-9


class InvalidRates(ValueError):
    """A branch rate came out negative or a rate parameter is unphysical."""


class DegenerateKernel(RuntimeError):
    """The generator's null space is not one-dimensional at tolerance."""


@dataclass(frozen=True)
class RateParams:
    """Kinetic rates of the optical cycle, all in 1/us.

    pump: GS -> ES optical pumping rate (P).
    recomb: ES -> GS radiative recombination rate (Gamma).
    gamma_ms: base scale of the nonradiative rates through the metastable
        state (Gamma_e); branch rates are gamma_ms*(1 +/- eta).
    eta_g / eta_e: spin selectivities of the MS -> GS and ES -> MS branches.
    gamma_g / gamma_e: isotropic spin relaxation within GS / ES.
    """

    pump: float = 1.0
    recomb: float = 10.0
    gamma_ms: float = 1.0
    eta_g: float = 0.5
    eta_e: float = 0.35
    gamma_g: float = 0.01
    gamma_e: float = 0.1

    def __post_init__(self):
        for name in ("pump", "recomb", "gamma_ms", "gamma_g", "gamma_e"):
            if getattr(self, name) < 0:
                raise InvalidRates(f"{name} must be >= 0")
        if abs(self.eta_g) > 1 or abs(self.eta_e) > 1:
            raise InvalidRates("|eta| > 1 makes a branch rate negative")

    @property
    def in_hierarchy(self) -> bool:
        """gamma_g, gamma_e <= 0.2*min(pump, recomb) > 0 and gamma_ms <= 0.2*recomb."""
        fast = min(self.pump, self.recomb)
        return bool(
            fast > 0
            and max(self.gamma_g, self.gamma_e) <= 0.2 * fast
            and self.gamma_ms <= 0.2 * self.recomb
        )

    @property
    def k_g_half(self) -> float:
        return self.gamma_ms * (1.0 + self.eta_g)

    @property
    def k_g_three(self) -> float:
        return self.gamma_ms * (1.0 - self.eta_g)

    @property
    def k_e_half(self) -> float:
        return self.gamma_ms * (1.0 + self.eta_e)

    @property
    def k_e_three(self) -> float:
        return self.gamma_ms * (1.0 - self.eta_e)

    def scaled(self, factor: float) -> "RateParams":
        """All rates multiplied by ``factor`` (selectivities unchanged)."""
        return RateParams(
            pump=self.pump * factor,
            recomb=self.recomb * factor,
            gamma_ms=self.gamma_ms * factor,
            eta_g=self.eta_g,
            eta_e=self.eta_e,
            gamma_g=self.gamma_g * factor,
            gamma_e=self.gamma_e * factor,
        )


@dataclass(frozen=True)
class SpinState:
    """Pair of GS/ES density matrices plus the metastable population."""

    rho_g: np.ndarray
    rho_e: np.ndarray
    n_m: float

    @property
    def n_g(self) -> float:
        return float(np.trace(self.rho_g).real)

    @property
    def n_e(self) -> float:
        return float(np.trace(self.rho_e).real)

    def total(self) -> float:
        return self.n_g + self.n_e + self.n_m

    def __getitem__(self, k) -> "SpinState":
        """State ``k`` of a batch of states."""
        return SpinState(rho_g=self.rho_g[k], rho_e=self.rho_e[k], n_m=self.n_m[k])


def hermitian_to_coords(m: np.ndarray) -> np.ndarray:
    """16 real coordinates (diag, Re upper, Im upper) of Hermitian (..., 4, 4)."""
    upper = m[..., UPPER_ROWS, UPPER_COLS]
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    return np.concatenate([diag.real, upper.real, upper.imag], axis=-1)


def coords_to_hermitian(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coords`."""
    m = np.zeros(c.shape[:-1] + (4, 4), dtype=complex)
    m[..., range(4), range(4)] = c[..., 0:4]
    m[..., UPPER_ROWS, UPPER_COLS] = c[..., 4:10] + 1j * c[..., 10:16]
    m[..., UPPER_COLS, UPPER_ROWS] = c[..., 4:10] - 1j * c[..., 10:16]
    return m


def state_to_coords(s: SpinState) -> np.ndarray:
    n_m = np.asarray(s.n_m, dtype=float)[..., None]
    return np.concatenate(
        [hermitian_to_coords(s.rho_g), hermitian_to_coords(s.rho_e), n_m], axis=-1
    )


def coords_to_state(x: np.ndarray) -> SpinState:
    """Inverse of :func:`state_to_coords`; a (..., NDIM) batch gives batched fields."""
    return SpinState(
        rho_g=coords_to_hermitian(x[..., 0:16]),
        rho_e=coords_to_hermitian(x[..., 16:32]),
        n_m=np.take(x, 32, axis=-1),
    )


def trace_functional() -> np.ndarray:
    """Row vector t with t @ x = Tr(rho_g) + Tr(rho_e) + N_m."""
    t = np.zeros(NDIM)
    t[0:4] = 1.0
    t[16:20] = 1.0
    t[32] = 1.0
    return t


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real 33x33 kinetic generator dx/dt = G x plus its construction context."""

    matrix: np.ndarray
    center: CenterParams
    rates: RateParams
    bx: float


def kinetic_rhs(center: CenterParams, rates: RateParams, bx, s: SpinState) -> SpinState:
    """Direct term-by-term evaluation of the kinetic equations at one state or a batch.

    An array of fields ``bx`` adds leading axes: the result has the shape
    ``bx.shape + batch`` of states.
    """
    ops = make_spin_operators()
    stack = np.shape(bx) + (1,) * (np.ndim(s.rho_g) - 2) + (4, 4)
    h_g = build_hamiltonian("g", center, bx).reshape(stack)
    h_e = build_hamiltonian("e", center, bx).reshape(stack)
    eye = np.eye(4, dtype=complex)
    tr_g = np.trace(s.rho_g, axis1=-2, axis2=-1)[..., None, None]
    tr_e = np.trace(s.rho_e, axis1=-2, axis2=-1)[..., None, None]
    n_m = np.asarray(s.n_m)[..., None, None]

    d_g = (
        TWO_PI * 1j * commutator(s.rho_g, h_g)
        + rates.recomb * s.rho_e
        - rates.pump * s.rho_g
        - rates.gamma_g * (s.rho_g - tr_g / 4.0 * eye)
        + (n_m / 2.0) * (rates.k_g_half * ops.p_half + rates.k_g_three * ops.p_three_half)
    )
    d_e = (
        TWO_PI * 1j * commutator(s.rho_e, h_e)
        - rates.recomb * s.rho_e
        + rates.pump * s.rho_g
        - rates.gamma_e * (s.rho_e - tr_e / 4.0 * eye)
        - rates.k_e_half * sym_anticommutator(ops.p_half, s.rho_e)
        - rates.k_e_three * sym_anticommutator(ops.p_three_half, s.rho_e)
    )
    d_m = (
        rates.k_e_half * np.trace(ops.p_half @ s.rho_e, axis1=-2, axis2=-1).real
        + rates.k_e_three * np.trace(ops.p_three_half @ s.rho_e, axis1=-2, axis2=-1).real
        - (rates.k_g_half + rates.k_g_three) * s.n_m
    )
    return SpinState(rho_g=d_g, rho_e=d_e, n_m=np.broadcast_to(d_m, d_g.shape[:-2]))


def linear_map_matrix(fn) -> np.ndarray:
    """Real NDIM x NDIM matrix of a linear ``SpinState -> SpinState`` map.

    ``fn`` is applied once, to the batch of all NDIM unit states; axes that
    ``fn`` puts in front of that batch (fields) lead the result as a stack of
    matrices.  The result is C-contiguous: a Fortran-ordered transpose rounds
    differently in LAPACK/BLAS.
    """
    images = state_to_coords(fn(coords_to_state(np.eye(NDIM))))
    return np.ascontiguousarray(np.swapaxes(images, -1, -2))


def generator_stack(center: CenterParams, rates: RateParams, fields) -> np.ndarray:
    """The (n_b, 33, 33) real generators at every field of a 1-D grid, in one probe."""
    fields = np.asarray(fields, dtype=float).reshape(-1)
    return linear_map_matrix(lambda s: kinetic_rhs(center, rates, fields, s))


def build_generator(center: CenterParams, rates: RateParams, bx: float) -> GeneratorMatrix:
    """Assemble the 33x33 real generator by probing the kinetics with unit states."""
    g = generator_stack(center, rates, bx)[0]
    return GeneratorMatrix(matrix=g, center=center, rates=rates, bx=bx)


def _kernel_coords(g: np.ndarray, fields, null_rtol: float) -> np.ndarray:
    """Normalized kernel vectors, one row per generator of the (n, 33, 33) stack ``g``.

    The singular values of the whole stack come from one batched SVD; the
    kernel checks and the least-squares solve are made field by field.
    """
    svals = np.linalg.svd(g, compute_uv=False)
    t_row = trace_functional()
    b = np.zeros(NDIM + 1)
    b[-1] = 1.0
    out = np.empty((len(g), NDIM))
    for k, (gk, sv, bx) in enumerate(zip(g, svals, fields)):
        n_null = int(np.sum(sv < null_rtol * max(sv[0], 1e-300)))
        if n_null == 0:
            raise DegenerateKernel(
                f"generator at {bx} mT has no zero mode; not a conservative kinetics"
            )
        if n_null > 1 and sv[-2] < 1e3 * max(sv[-1], 1e-300):
            # Distinguish a genuinely degenerate kernel from very slow (but
            # nonzero) relaxation modes that fall under the norm-relative cut
            # when the coherent scale dominates |G|.
            raise DegenerateKernel(
                f"kernel dimension {n_null} != 1 at {bx} mT (singular values {sv[-3:]})"
            )
        x, *_ = np.linalg.lstsq(np.vstack([gk, t_row]), b, rcond=None)
        residual = np.linalg.norm(gk @ x)
        gnorm = np.linalg.norm(gk)
        if residual > null_rtol * gnorm:
            raise DegenerateKernel(
                f"steady-state residual {residual:.3e} vs |G| {gnorm:.3e} at {bx} mT"
            )
        out[k] = x / (t_row @ x)
    return out


def steady_state(gen: GeneratorMatrix, null_rtol: float = NULL_RTOL) -> SpinState:
    """Normalized kernel vector of the generator.

    The structural zero mode (total-population conservation) is fixed by
    appending the normalization row and solving the 34x33 least-squares
    system.  Raises DegenerateKernel when the kernel is not one-dimensional
    or the residual is out of tolerance.
    """
    return coords_to_state(_kernel_coords(gen.matrix[None], [gen.bx], null_rtol)[0])


def steady_states(center: CenterParams, rates: RateParams, fields) -> SpinState:
    """Steady states over a 1-D field grid, as one batch with a leading field axis.

    Equal, bit for bit, to ``steady_state_at`` field by field.  The grid is
    processed SWEEP_BLOCK fields at a time: one probe builds a block's
    generators and one stacked SVD checks their kernels.
    """
    fields = np.asarray(fields, dtype=float).reshape(-1)
    coords = np.empty((fields.size, NDIM))
    for start in range(0, fields.size, SWEEP_BLOCK):
        block = fields[start:start + SWEEP_BLOCK]
        gens = generator_stack(center, rates, block)
        coords[start:start + block.size] = _kernel_coords(gens, block, NULL_RTOL)
    return coords_to_state(coords)


def time_evolve(gen: GeneratorMatrix, s0: SpinState, t: float) -> SpinState:
    """Propagate s0 by exp(G t); exact for this linear system."""
    if t < 0:
        raise ValueError("t must be >= 0")
    x0 = state_to_coords(s0)
    if t == 0.0:
        return coords_to_state(x0)
    # Split long horizons so the scaling-squaring in expm stays well inside
    # its accurate regime even when 2*pi*D_e*t is huge.
    gnorm = np.linalg.norm(gen.matrix, ord=np.inf)
    n_seg = max(1, int(np.ceil(gnorm * t / 1e4)))
    import scipy.linalg  # deferred: no CLI subcommand evolves in time

    prop = scipy.linalg.expm(gen.matrix * (t / n_seg))
    x = x0
    for _ in range(n_seg):
        x = prop @ x
    return coords_to_state(x)


def pl_intensity(rates: RateParams, s: SpinState) -> float:
    """Photoluminescence rate: recombination rate times ES population."""
    return rates.recomb * s.n_e


def steady_state_at(center: CenterParams, rates: RateParams, bx: float) -> SpinState:
    """Convenience: build the generator at bx and return its steady state."""
    return steady_state(build_generator(center, rates, bx))


def level_report(center: CenterParams, rates: RateParams, bx: float, state: SpinState) -> dict:
    """Eigenstate populations and optical brightness of both levels.

    ``state`` is the steady state at bx, e.g. from a ``steady_states`` sweep.

    Populations are the diagonal of the steady-state density matrix in the
    eigenbasis of the respective Hamiltonian.  Brightness of a GS eigenstate
    is the overlap-weighted PL it receives, sum_j T_eg[j, i] * f_e[j]; for an
    ES eigenstate it is the overlap-weighted pump feeding it,
    sum_i T_eg[j, i] * f_g[i], with T_eg the |<e_j|g_i>|^2 transfer matrix.
    """
    es_g = eigensystem("g", center, bx)
    es_e = eigensystem("e", center, bx)
    f_g = np.real(np.diag(es_g.vectors.conj().T @ state.rho_g @ es_g.vectors))
    f_e = np.real(np.diag(es_e.vectors.conj().T @ state.rho_e @ es_e.vectors))
    u_eg = es_e.vectors.conj().T @ es_g.vectors
    t_eg = np.abs(u_eg) ** 2
    return {
        "energies_g": es_g.energies,
        "energies_e": es_e.energies,
        "populations_g": f_g,
        "populations_e": f_e,
        "brightness_g": t_eg.T @ f_e,
        "brightness_e": t_eg @ f_g,
        "n_m": state.n_m,
        "pl": pl_intensity(rates, state),
    }
