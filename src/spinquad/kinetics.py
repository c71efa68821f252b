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

The field enters only through the Zeeman term gyro*B_x*S_x of H_g and H_e,
so the generator is affine in it: G(B) = G(0) + 2*pi*(gyro*B)*Z, with Z the
field-free pattern of rho -> i[rho, S_x] (``zeeman_pattern``).  A sweep
probes ``kinetic_rhs`` once, at 0 mT, and adds the Zeeman term per field;
no entry of G carries both a field term and a field-free term, so the sum
is the probe at that field bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import CenterParams, build_hamiltonian, eigensystem
from .spin_algebra import UPPER_COLS, UPPER_ROWS, commutator, make_spin_operators, sym_anticommutator

TWO_PI = 2.0 * np.pi

NDIM = 33  # 16 (rho_g) + 16 (rho_e) + 1 (N_m)

# Fields per block of a batched sweep.  A block's (SWEEP_BLOCK, 33, 33)
# generator stack, its SVD and its bordered LU bound the memory of a sweep,
# whatever the length of its field grid.  64 fields are about 0.6 MB of
# generators.
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
    def n_g(self):
        """trace(rho_g), one per state of a batch."""
        return np.trace(self.rho_g, axis1=-2, axis2=-1).real

    @property
    def n_e(self):
        return np.trace(self.rho_e, axis1=-2, axis2=-1).real

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
    """Real 33x33 kinetic generator dx/dt = G x at the static field bx."""

    matrix: np.ndarray
    bx: float


def kinetic_rhs(center: CenterParams, rates: RateParams, bx: float, s: SpinState) -> SpinState:
    """Direct term-by-term evaluation of the kinetic equations at one state or a batch."""
    ops = make_spin_operators()
    h_g = build_hamiltonian("g", center, bx)
    h_e = build_hamiltonian("e", center, bx)
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
    return SpinState(rho_g=d_g, rho_e=d_e, n_m=d_m)


def linear_map_matrix(fn) -> np.ndarray:
    """Real NDIM x NDIM matrix of a linear ``SpinState -> SpinState`` map.

    ``fn`` is applied once, to the batch of all NDIM unit states.  The
    result is C-contiguous: a Fortran-ordered transpose rounds
    differently in LAPACK/BLAS.
    """
    images = state_to_coords(fn(coords_to_state(np.eye(NDIM))))
    return np.ascontiguousarray(np.swapaxes(images, -1, -2))


@cache
def zeeman_pattern() -> tuple[np.ndarray, np.ndarray]:
    """Z, the real 33x33 matrix of x -> coords(i[rho_g, S_x], i[rho_e, S_x], 0), as (S, 2*pi*C).

    Each entry of Z is c*s, with s an entry of S_x (sqrt(3)/2 or 1) and c = 2
    where the commutator adds two equal products, else 1.  The field term
    2*pi*c*fl(gyro*B*s) then rounds as the probe rounds it, subnormal fields
    included.  Built once by one probe and shared, so the arrays are read-only.
    """
    sx = make_spin_operators().sx
    z = linear_map_matrix(lambda s: SpinState(
        rho_g=1j * commutator(s.rho_g, sx), rho_e=1j * commutator(s.rho_e, sx),
        n_m=np.zeros_like(s.n_m),
    ))
    doubled = np.abs(z) > 1.5  # sqrt(3) and 2
    pattern = np.where(doubled, z / 2.0, z), np.where(doubled, 2.0 * TWO_PI, TWO_PI)
    for a in pattern:
        a.flags.writeable = False
    return pattern


def generator_stack(center: CenterParams, rates: RateParams, fields) -> np.ndarray:
    """The (n_b, 33, 33) real generators at every field of a 1-D grid.

    G(B) = G(0) + 2*pi*(gyro*B)*Z, with G(0) one probe of ``kinetic_rhs`` and
    the gyro of each row's level (0 for N_m).  No entry of G(0) meets a
    nonzero entry of Z, so every slice equals the probe of ``kinetic_rhs`` at
    its field, signs of zeros included.
    """
    fields = np.asarray(fields, dtype=float).reshape(-1)
    if not np.all(np.isfinite(fields)):
        raise ValueError("bx must be finite")
    g0 = linear_map_matrix(lambda s: kinetic_rhs(center, rates, 0.0, s))
    gyro = np.repeat([center.gyro_of("g"), center.gyro_of("e"), 0.0], [16, 16, 1])
    s_x, two_pi_c = zeeman_pattern()
    return g0 + np.multiply.outer(fields, gyro)[:, :, None] * s_x * two_pi_c


def build_generator(center: CenterParams, rates: RateParams, bx: float) -> GeneratorMatrix:
    """The 33x33 real generator at one field (``generator_stack`` of one field)."""
    g = generator_stack(center, rates, bx)[0]
    return GeneratorMatrix(matrix=g, bx=bx)


def bordered_generator(g: np.ndarray) -> np.ndarray:
    """B = G + u t^T with u = t/9, so t.u = 1, for one generator or a stack.

    B is nonsingular when the kernel of G is one-dimensional and its state
    has a nonzero trace.  As t G = 0, B x = u gives the steady state (G x = 0,
    t.x = 1), and B y = s, for a source with t.s = 0, the trace-zero solution
    of G y = s.
    """
    t_row = trace_functional()
    return g + np.outer(t_row / 9.0, t_row)


def _kernel_coords(g: np.ndarray, fields) -> tuple[np.ndarray, np.ndarray]:
    """Normalized kernel vectors and the norms |G|_2 of the (n, 33, 33) stack ``g``.

    One stacked SVD checks the kernels (its largest singular values are the
    norms) and one batched LU solve of the bordered generators gives the
    states, one row each; a failed check or residual gate raises
    DegenerateKernel naming the field.
    """
    svals = np.linalg.svd(g, compute_uv=False)
    n_null = np.sum(svals < NULL_RTOL * np.maximum(svals[:, :1], 1e-300), axis=1)
    # Slow (but nonzero) relaxation modes fall under the norm-relative cut
    # when the coherent scale dominates |G|; a genuine degeneracy sits at
    # round-off, of sv[-1] or of |G| when sv[-1] is exactly 0.
    floor = np.maximum(np.maximum(svals[:, -1], np.finfo(float).eps * svals[:, 0]), 1e-300)
    degenerate = (n_null == 0) | ((n_null > 1) & (svals[:, -2] < 1e3 * floor))
    if np.any(degenerate):
        k = np.argmax(degenerate)
        if n_null[k] == 0:
            raise DegenerateKernel(
                f"generator at {fields[k]} mT has no zero mode; not a conservative kinetics"
            )
        raise DegenerateKernel(
            f"kernel dimension {n_null[k]} != 1 at {fields[k]} mT "
            f"(singular values {svals[k, -3:]})"
        )
    b = bordered_generator(g)
    try:
        x = np.linalg.solve(b, trace_functional()[:, None] / 9.0)[..., 0]
    except np.linalg.LinAlgError as err:
        # a one-dimensional kernel whose state has zero trace (a defective zero
        # eigenvalue) leaves B singular; slogdet factors B as solve does
        k = np.argmax(np.linalg.slogdet(b)[0] == 0)
        raise DegenerateKernel(f"the zero mode at {fields[k]} mT carries no population") from err
    residual = np.linalg.norm(g @ x[..., None], axis=(1, 2))
    gnorm = np.linalg.norm(g, axis=(1, 2))
    failed = ~(residual <= NULL_RTOL * gnorm)
    if np.any(failed):
        k = np.argmax(failed)
        raise DegenerateKernel(
            f"steady-state residual {residual[k]:.3e} vs |G| {gnorm[k]:.3e} at {fields[k]} mT"
        )
    return x, svals[:, 0]


def steady_state(gen: GeneratorMatrix) -> SpinState:
    """Normalized kernel vector of the generator.

    The structural zero mode (total-population conservation) is fixed by
    the rank-one border of ``bordered_generator``: one 33x33 LU solve.
    Raises DegenerateKernel when the kernel is not one-dimensional or the
    residual is out of tolerance.
    """
    coords, _ = _kernel_coords(gen.matrix[None], [gen.bx])
    return coords_to_state(coords[0])


def sweep_blocks(center: CenterParams, rates: RateParams, fields):
    """Yield each SWEEP_BLOCK-field block's (n, 33, 33) generators, (n, 33) steady states
    and (n,) norms |G|_2.

    ``generator_stack`` builds a block's generators and one stacked SVD checks
    their kernels; every state equals ``steady_state_at`` at its field, bit
    for bit.
    """
    fields = np.asarray(fields, dtype=float).reshape(-1)
    for start in range(0, fields.size, SWEEP_BLOCK):
        block = fields[start:start + SWEEP_BLOCK]
        gens = generator_stack(center, rates, block)
        yield gens, *_kernel_coords(gens, block)


def steady_states(center: CenterParams, rates: RateParams, fields) -> SpinState:
    """Steady states over a 1-D field grid, as one batch with a leading field axis."""
    coords = [x for _, x, _ in sweep_blocks(center, rates, fields)]
    return coords_to_state(np.concatenate([np.empty((0, NDIM)), *coords]))


def pl_intensity(rates: RateParams, s: SpinState) -> float:
    """Photoluminescence rate: recombination rate times ES population."""
    return rates.recomb * s.n_e


def steady_state_at(center: CenterParams, rates: RateParams, bx: float) -> SpinState:
    """Convenience: build the generator at bx and return its steady state."""
    return steady_state(build_generator(center, rates, bx))


def level_report(center: CenterParams, rates: RateParams, bx, state: SpinState) -> dict:
    """Eigenstate populations and optical brightness of both levels.

    ``state`` is the steady state at bx; an array of fields takes the batch
    of a ``steady_states`` sweep, and every entry gains the field axes.

    Populations are the diagonal of the steady-state density matrix in the
    eigenbasis of the respective Hamiltonian.  Brightness of a GS eigenstate
    is the overlap-weighted PL it receives, sum_j T_eg[j, i] * f_e[j]; for an
    ES eigenstate it is the overlap-weighted pump feeding it,
    sum_i T_eg[j, i] * f_g[i], with T_eg the |<e_j|g_i>|^2 transfer matrix.
    """
    es_g, es_e = eigensystem("g", center, bx), eigensystem("e", center, bx)
    adj_g, adj_e = (np.swapaxes(es.vectors.conj(), -1, -2) for es in (es_g, es_e))
    f_g = np.real(np.diagonal(adj_g @ state.rho_g @ es_g.vectors, axis1=-2, axis2=-1))
    f_e = np.real(np.diagonal(adj_e @ state.rho_e @ es_e.vectors, axis1=-2, axis2=-1))
    t_eg = np.abs(adj_e @ es_g.vectors) ** 2
    return {
        "energies_g": es_g.energies,
        "energies_e": es_e.energies,
        "populations_g": f_g,
        "populations_e": f_e,
        "brightness_g": (np.swapaxes(t_eg, -1, -2) @ f_e[..., None])[..., 0],
        "brightness_e": (t_eg @ f_g[..., None])[..., 0],
        "n_m": state.n_m,
        "pl": pl_intensity(rates, state),
    }
