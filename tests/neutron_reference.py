"""High-precision reference for double-barrier transmission and phase-times.

A test-only computation in mpmath that shares no code with `tunnelkit`:
it has its own constants (CODATA 2018), its own plane-wave transfer
matrix and its own root finding, so a value it agrees with is confirmed
by a second route rather than by the same arithmetic done twice.

`DoubleBarrier` evaluates any symmetric double barrier (a, U0, L, m) at
any energy E below the barrier top:

* the transmission amplitude t and probability |t|^2;
* Im(r_c / t), where r_c is the reflection amplitude with the origin at
  the centre of the structure. For a real symmetric potential unitarity
  makes r_c / t purely imaginary, so this real function vanishes exactly
  where |t| = 1 and changes sign there;
* the Breit-Wigner half-width beta of the linearisation
  D = C_r (E - E_r + i beta), D = exp(-2ika) / t, i.e. beta = 1 / |D'(E_r)|
  since |D(E_r)| = 1;
* the Wigner phase-time tau(E) = hbar d/dE arg(t exp(ik(2a + L))).

`stable` evaluates a reference at two precisions and insists that the
floats agree, which shows the working precision was enough.

`neutron_reference` starts from the neutron filter's geometry alone: the
effective mass for which it resonates at 127 neV is the root of
Im(r_c / t) in the mass, and tau_r = tau(E_r) and the mean of tau over
[E_r - beta, E_r + beta] follow (`mp.quad`, Gauss-Legendre, split at
E_r). At 20, 30 and 50 digits the returned floats are identical.

Energies are carried in neV, lengths in angstrom and masses in units of
the free neutron mass, so every quantity the root finder, the numeric
derivative and the quadrature see is of order one.
"""

from __future__ import annotations

import functools

from mpmath import mp

from conftest import NEUTRON_A_ANGSTROM, NEUTRON_L_ANGSTROM, NEUTRON_U0_NEV

# CODATA 2018 (hbar, free neutron mass) and the exact SI electron-volt.
HBAR = "1.054571817e-34"
M_NEUTRON = "1.67492749804e-27"
J_PER_EV = "1.602176634e-19"

TARGET_E_R_NEV = 127
DIGITS = 30


def _transfer_t_r(k_free, k_barrier, a, L):
    """Transmission and reflection amplitudes of the double barrier.

    The barriers occupy [0, a] and [a + L, 2a + L]. In each region the
    wave is A exp(i kappa x) + B exp(-i kappa x) with kappa the (complex)
    wavenumber; matching psi and psi' at an interface x between kappa1
    and kappa2 gives, with s = kappa1 / kappa2,

        A2 = [(1 + s) e^{i(kappa1 - kappa2)x} A1 + (1 - s) e^{-i(kappa1 + kappa2)x} B1] / 2
        B2 = [(1 - s) e^{i(kappa1 + kappa2)x} A1 + (1 + s) e^{-i(kappa1 - kappa2)x} B1] / 2.

    Incidence from the left: (1, r) on the left maps to (t, 0) on the right.
    """
    return _regions_t_r((k_free, k_barrier, k_free, k_barrier, k_free), (0, a, a + L, 2 * a + L))


def _regions_t_r(regions, edges):
    """t and r of the regions of wavenumbers `regions`, split at `edges`
    (one fewer), with the matching of `_transfer_t_r`."""
    # columns: the images of (A, B) = (1, 0) and (0, 1) on the far left
    m11, m12, m21, m22 = 1, 0, 0, 1
    for j, x in enumerate(edges):
        k1, k2 = regions[j], regions[j + 1]
        s = k1 / k2
        e_diff, e_sum = mp.expj((k1 - k2) * x), mp.expj((k1 + k2) * x)
        aa, ab = (1 + s) * e_diff / 2, (1 - s) / e_sum / 2
        ba, bb = (1 - s) * e_sum / 2, (1 + s) / e_diff / 2
        m11, m12, m21, m22 = (
            aa * m11 + ab * m21, aa * m12 + ab * m22,
            ba * m11 + bb * m21, ba * m12 + bb * m22,
        )
    r = -m21 / m22
    t = m11 + m12 * r
    return t, r


def _joule_per_nev():
    return mp.mpf(J_PER_EV) * mp.mpf("1e-9")


class DoubleBarrier:
    """A symmetric double barrier at the working precision.

    Lengths in angstrom, energies in neV, the mass as a ratio to the free
    neutron mass; build it inside `mp.workdps`. Exact binary floats may be
    passed for every parameter.
    """

    def __init__(self, a, U0, L, mass_ratio):
        self.hbar = mp.mpf(HBAR)
        self.j_per_nev = _joule_per_nev()
        # wavenumber in 1/angstrom of a neutron of unit mass ratio and 1 neV
        self.k_unit = (
            mp.sqrt(2 * mp.mpf(M_NEUTRON) * self.j_per_nev) / self.hbar * mp.mpf("1e-10")
        )
        self.a, self.U0, self.L = mp.mpf(a), mp.mpf(U0), mp.mpf(L)
        self.mass_ratio = mp.mpf(mass_ratio)

    @classmethod
    def from_si(cls, a, U0, L, m):
        """The system given in metres, joules and kilograms."""
        return cls(
            mp.mpf(a) * 10**10,
            mp.mpf(U0) / _joule_per_nev(),
            mp.mpf(L) * 10**10,
            mp.mpf(m) / mp.mpf(M_NEUTRON),
        )

    def nev(self, E_joule):
        return mp.mpf(E_joule) / self.j_per_nev

    def wavenumber(self, E):
        return self.k_unit * mp.sqrt(self.mass_ratio * E)

    def t_r(self, E):
        k_barrier = self.k_unit * mp.sqrt(mp.mpc(self.mass_ratio * (E - self.U0)))
        return _transfer_t_r(self.wavenumber(E), k_barrier, self.a, self.L)

    def t(self, E):
        return self.t_r(E)[0]

    def probability(self, E):
        return abs(self.t(E)) ** 2

    def symmetric_residual(self, E):
        """Im(r_c / t): zero exactly where |t| = 1."""
        t, r = self.t_r(E)
        return mp.im(r * mp.expj(-self.wavenumber(E) * (2 * self.a + self.L)) / t)

    def tau(self, E):
        """Phase-time in s: hbar d/dE [arg t + k (2a + L)]."""
        dphase = mp.im(mp.diff(self.t, E) / self.t(E))
        dk = self.wavenumber(E) / (2 * E)
        return self.hbar / self.j_per_nev * (dphase + (2 * self.a + self.L) * dk)

    def denominator(self, E):
        return mp.expj(-2 * self.wavenumber(E) * self.a) / self.t(E)

    def beta(self, E_r):
        """Breit-Wigner half-width 1 / |D'(E_r)| in neV."""
        return 1 / abs(mp.diff(self.denominator, E_r))


def stable(evaluate, digits: int):
    """evaluate() as floats at `digits` and `digits + 20`, which must agree."""
    results = []
    for dps in (digits, digits + 20):
        with mp.workdps(dps):
            results.append(evaluate())
    low, high = results
    if low != high:
        raise AssertionError(
            f"reference unstable between {digits} and {digits + 20} digits: {low} vs {high}"
        )
    return high


@functools.lru_cache(maxsize=None)
def neutron_reference(digits: int = DIGITS) -> dict:
    """Reference values for the fitted-mass neutron filter (times in s)."""
    with mp.workdps(digits):
        E_r = mp.mpf(TARGET_E_R_NEV)

        def system(mass_ratio):
            return DoubleBarrier(
                NEUTRON_A_ANGSTROM, NEUTRON_U0_NEV, NEUTRON_L_ANGSTROM, mass_ratio
            )

        # one sign change over the bracket the suite fits the mass in
        mass_ratio = mp.findroot(
            lambda m: system(m).symmetric_residual(E_r), (0.5, 1.5), solver="anderson"
        )
        filt = system(mass_ratio)
        beta = filt.beta(E_r)
        # the Lorentzian peak is smooth on the scale of beta: Gauss-Legendre
        # meets the working precision with a quarter of tanh-sinh's nodes
        window = [E_r - beta, E_r, E_r + beta]
        tau_avg = mp.quad(filt.tau, window, method="gauss-legendre") / (2 * beta)
        return {
            "mass_ratio": float(mass_ratio),
            "transmission_at_root": float(filt.probability(E_r)),
            "beta_neV": float(beta),
            "tau_r": float(filt.tau(E_r)),
            "tau_avg": float(tau_avg),
        }
