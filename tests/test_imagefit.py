import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermichip import constants as C
from fermichip import density, imagefit as imf, thermo


@pytest.fixture(scope="module")
def gas_factory(k92, science_trap):
    def make(t_red):
        return thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t_red)

    return make


def gauss_image(n, rx, ry, shape, pitch):
    img = imf.TofImage(np.zeros(shape), pitch)
    xx, yy = img.coordinates()
    img.values = n / (2 * np.pi * rx * ry) * np.exp(
        -0.5 * (xx / rx) ** 2 - 0.5 * (yy / ry) ** 2
    )
    return img


# -- synthesis ------------------------------------------------------------------------

def test_synthesized_image_normalization(gas_factory):
    gas = gas_factory(0.3)
    img = imf.synthesize_tof_image(gas, 10e-3, (96, 96), 8e-6, 0.0)
    total = float(img.values.sum()) * img.pitch**2
    assert total == pytest.approx(gas.n_atoms, rel=1e-3)


def test_synthesized_image_deterministic(gas_factory):
    gas = gas_factory(0.3)
    a = imf.synthesize_tof_image(gas, 10e-3, (32, 32), 8e-6, 1e9, seed=42)
    b = imf.synthesize_tof_image(gas, 10e-3, (32, 32), 8e-6, 1e9, seed=42)
    c = imf.synthesize_tof_image(gas, 10e-3, (32, 32), 8e-6, 1e9, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # the noise is the one add_noise draws for the same seed
    clean = imf.synthesize_tof_image(gas, 10e-3, (32, 32), 8e-6)
    noisy = imf.add_noise(clean, 1e9, seed=42)
    assert np.array_equal(noisy.values, a.values) and noisy.noise_rms == a.noise_rms == 1e9


def test_synthesized_peak_matches_closed_form(gas_factory):
    gas = gas_factory(0.1)
    img = imf.synthesize_tof_image(gas, 10e-3, (65, 65), 8e-6, 0.0)
    center = img.values[32, 32]
    assert center == pytest.approx(
        density.column_density_fermi(gas, 10e-3, 0.0, 0.0), rel=1e-12
    )


def test_raster_roundtrip(tmp_path, gas_factory):
    gas = gas_factory(0.2)
    img = imf.synthesize_tof_image(gas, 10e-3, (32, 32), 8e-6, 0.0)
    path = tmp_path / "img.raster"
    img.save(path)
    back = imf.TofImage.load(path)
    assert back.pitch == pytest.approx(img.pitch)
    assert np.array_equal(back.values, img.values)


# -- Gaussian fit ----------------------------------------------------------------------

def test_gaussian_fit_exact_recovery():
    img = gauss_image(3e4, 40e-6, 55e-6, (64, 64), 7e-6)
    fit = imf.fit_gaussian(img)
    assert fit.params["N"] == pytest.approx(3e4, rel=1e-6)
    assert fit.params["r_x"] == pytest.approx(40e-6, rel=1e-6)
    assert fit.params["r_y"] == pytest.approx(55e-6, rel=1e-6)
    assert abs(fit.params["x0"]) < 1e-12
    assert abs(fit.params["y0"]) < 1e-12


def test_gaussian_fit_high_temperature_residuals(gas_factory):
    gas = gas_factory(2.0)
    img = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 25e-6, 0.0)
    fit = imf.fit_gaussian(img)
    xx, yy = img.coordinates()
    p = fit.params
    model = p["N"] / (2 * np.pi * p["r_x"] * p["r_y"]) * np.exp(
        -0.5 * ((xx - p["x0"]) / p["r_x"]) ** 2 - 0.5 * ((yy - p["y0"]) / p["r_y"]) ** 2
    )
    rms = math.sqrt(float(np.mean((img.values - model) ** 2)))
    assert rms < 0.005 * float(img.values.max())


def test_gaussian_fit_degenerate_residual_pattern(gas_factory):
    # flat-topped Fermi profile: fitted Gaussian overshoots the centre and
    # undershoots at mid-radius
    gas = gas_factory(0.1)
    img = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 8e-6, 0.0)
    fit = imf.fit_gaussian(img)
    xx, yy = img.coordinates()
    p = fit.params
    model = p["N"] / (2 * np.pi * p["r_x"] * p["r_y"]) * np.exp(
        -0.5 * ((xx - p["x0"]) / p["r_x"]) ** 2 - 0.5 * ((yy - p["y0"]) / p["r_y"]) ** 2
    )
    resid = img.values - model
    peak = float(img.values.max())
    r_ell = np.hypot(xx / p["r_x"], yy / p["r_y"])
    assert resid[32, 32] < -0.05 * peak
    annulus = (r_ell > 1.2) & (r_ell < 1.8)
    assert float(resid[annulus].mean()) > 0.01 * peak


def test_fit_requires_informative_pixels():
    # an uninformative image is an input error, not a fit failure
    img = imf.TofImage(np.zeros((64, 64)), 1e-6)
    img.values[32, 32] = 1.0
    with pytest.raises(ValueError, match="fewer than 100 informative pixels") as info:
        imf.fit_gaussian(img)
    assert not isinstance(info.value, imf.FitError)


def test_fit_rejects_negative_atom_number():
    # N is solved in closed form and unbounded: a dip that outweighs the
    # signal projects to N < 0, a numerical failure rather than a result
    img = imf.TofImage(np.zeros((64, 64)), 10e-6)
    xx, yy = img.coordinates()
    r2 = xx**2 + yy**2
    img.values = 1e11 * np.exp(-0.5 * r2 / 300e-6**2) - 1e12 * np.exp(-0.5 * r2 / 80e-6**2)
    for fit in (imf.fit_gaussian, imf.fit_fermi_dirac):
        with pytest.raises(imf.FitError, match="not positive"):
            fit(img)


# -- Fermi-Dirac fit ----------------------------------------------------------------------

@pytest.mark.parametrize("t_red", [0.1, 0.3, 1.0])
def test_fd_fit_self_recovery(gas_factory, t_red):
    gas = gas_factory(t_red)
    img = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 8e-6 if t_red < 1 else 20e-6, 0.0)
    fit = imf.fit_fermi_dirac(img)
    assert fit.params["Z"] == pytest.approx(gas.fugacity, rel=1e-10)
    assert fit.params["N"] == pytest.approx(gas.n_atoms, rel=1e-10)
    assert fit.params["T_over_TF"] == pytest.approx(t_red, rel=1e-10)


def test_fd_fit_flags_unconstrained_z(gas_factory):
    gas = gas_factory(3.0)
    clean = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 30e-6, 0.0)
    noisy = imf.synthesize_tof_image(
        gas, 10e-3, (64, 64), 30e-6, 0.02 * float(clean.values.max()), seed=3
    )
    fit = imf.fit_fermi_dirac(noisy)
    assert "z_poorly_constrained" in fit.flags


def test_chi2_nesting(gas_factory):
    # the FD model nests the Gaussian, so its chi2 can never be worse;
    # the gap opens as degeneracy grows
    ratios = []
    for t_red, pitch in ((0.1, 8e-6), (0.5, 12e-6), (2.0, 25e-6)):
        gas = gas_factory(t_red)
        clean = imf.synthesize_tof_image(gas, 10e-3, (64, 64), pitch, 0.0)
        img = imf.synthesize_tof_image(
            gas, 10e-3, (64, 64), pitch, 0.02 * float(clean.values.max()), seed=5
        )
        g = imf.fit_gaussian(img)
        f = imf.fit_fermi_dirac(img)
        assert f.chi2 <= g.chi2 * (1.0 + 1e-12)
        ratios.append(g.reduced_chi2 / f.reduced_chi2)
    assert ratios[0] > ratios[1] > 0.95
    assert ratios[2] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize(
    "size,pitch,t_red,seed",
    [(64, 20e-6, 1.05, 1), (64, 16e-6, 1.424, 2), (48, 16e-6, 1.25, 1), (48, 16e-6, 1.3, 1)],
)
def test_fd_chi2_nests_gaussian_classical(gas_factory, size, pitch, t_red, seed):
    # classical images on which a finite-difference fit stopped 7e-11 to 1.6e-10
    # of chi2 above the Gaussian fit, short of the Z -> 0 limit it contains
    gas = gas_factory(t_red)
    clean = imf.synthesize_tof_image(gas, 10e-3, (size, size), pitch)
    img = imf.add_noise(clean, 0.02 * float(clean.values.max()), seed)
    assert imf.fit_fermi_dirac(img).chi2 <= imf.fit_gaussian(img).chi2 * (1.0 + 1e-12)


@pytest.mark.parametrize("ln_z", [-25.0, -1.0, 0.0, 3.0, 10.0])
def test_model_jacobians_match_finite_differences(ln_z):
    img = imf.TofImage(np.zeros((30, 26)), 5e-6)
    x, y = img.axes()
    phi = np.array([30e-6, 22e-6, 7e-6, -4e-6, ln_z])
    scale = np.array([30e-6, 22e-6, 30e-6, 22e-6, 1.0])   # each parameter's natural size
    truth = phi + [3e-6, -2e-6, 2e-6, 1e-6, 0.5]
    data = 1e4 * imf._fd_shape(truth, x, y)[0].ravel()
    data += 0.02 * data.max() * np.random.default_rng(1).normal(size=data.size)
    for shape, k in ((imf._gauss_shape, 4), (imf._fd_shape, 5)):
        def both(p):
            # the Jacobian writes ds/dphi into the block it is given
            ds = np.empty((k, data.size))
            r, jacobian, _, s = imf._projected(shape, p, x, y, data, 7.0, ds)
            jac = jacobian()
            return s, ds, r, jac

        s, ds, r, jac = both(phi[:k])
        for i in range(k):
            h = np.zeros(k)
            h[i] = 1e-6 * scale[i]
            sp, _, rp, _ = both(phi[:k] + h)
            sm, _, rm, _ = both(phi[:k] - h)
            # derivatives in units of each parameter's size, against the largest entry
            for exact, diff, all_ in ((ds[i], sp - sm, ds), (jac[:, i], rp - rm, jac.T)):
                tol = 1e-6 * np.max(np.abs(all_ * scale[:k, None]))
                assert np.max(np.abs(exact * scale[i] - diff / 2e-6)) <= tol


def test_covariance_singular_on_degenerate_image():
    # a cloud one pixel wide: its width and x-centre only scale the one column,
    # which N already does, so J^T J is singular
    img = imf.TofImage(np.zeros((128, 9)), 10e-6)
    xx, yy = img.coordinates()
    img.values[:, 4] = 1e12 * np.exp(-0.5 * (yy[:, 4] / 300e-6) ** 2)
    gauss, fd = imf.fit_gaussian(img), imf.fit_fermi_dirac(img)
    assert gauss.covariance is None and gauss.flags == ["covariance_singular"]
    assert fd.covariance is None
    assert "covariance_singular" in fd.flags and "z_poorly_constrained" in fd.flags


def test_fit_work_count(gas_factory, monkeypatch):
    # the fixed images of c9-chi2-degenerate and c9-chi2-boltzmann; nfev, each one
    # residual, measured 11 and 11 (degenerate) and 6 and 27 (Boltzmann) for the
    # Gaussian and Fermi-Dirac fits; njev counts Jacobians, built only at the start
    # and at accepted points, so a trial that does not lower chi2 costs none
    chi2s, projected = [], imf._projected

    def recording(*args):
        out = projected(*args)
        chi2s.append(np.einsum("p,p", out[0], out[0]))
        return out

    monkeypatch.setattr(imf, "_projected", recording)
    for t_red, pitch, measured in ((0.1, 8e-6, (11, 11)), (2.0, 25e-6, (6, 27))):
        clean = imf.synthesize_tof_image(gas_factory(t_red), 10e-3, (64, 64), pitch)
        img = imf.add_noise(clean, 0.02 * float(clean.values.max()), seed=7)
        for fit, nfev in zip((imf.fit_gaussian, imf.fit_fermi_dirac), measured):
            chi2s.clear()
            diag = fit(img).diagnostics
            assert set(diag) == {"nfev", "njev", "status"} and diag["status"] in (1, 2, 3)
            assert diag["nfev"] == len(chi2s) and diag["nfev"] <= 1.5 * nfev
            rejected = sum(c >= min(chi2s[:i]) for i, c in enumerate(chi2s) if i)
            assert diag["njev"] <= diag["nfev"] and diag["njev"] == diag["nfev"] - rejected


def test_fits_match_least_squares(k92, science_trap):
    # scipy as the oracle: its trust-region least squares on the same projected
    # residual, start and bounds; no fit may stop above its minimum
    from scipy.optimize import least_squares

    rng = np.random.default_rng(12)
    for i, t_red in enumerate(np.geomspace(0.08, 1.5, 16)):
        gas = thermo.TrappedGasState.from_reduced_temperature(
            k92, science_trap, 10 ** rng.uniform(4.0, 5.0), t_red)
        clean = imf.synthesize_tof_image(gas, 10e-3, (48, 48), 16e-6)
        img = imf.add_noise(clean, 0.02 * float(clean.values.max()), seed=i)
        x, y = img.axes()
        phi0, lo, hi = imf._start(img)
        for fit, shape, (z0, z_lo, z_hi) in (
            (imf.fit_gaussian, imf._gauss_shape, ([], [], [])),
            (imf.fit_fermi_dirac, imf._fd_shape, ([1.0], [-30.0], [30.0])),
        ):
            ds = np.empty((len(phi0 + z0), img.values.size))
            model = lambda p: imf._projected(shape, p, x, y, img.values.ravel(), img.noise_rms, ds)
            ref = least_squares(lambda p: model(p)[0], phi0 + z0, jac=lambda p: model(p)[1](),
                                bounds=(lo + z_lo, hi + z_hi), xtol=1e-14, ftol=1e-14,
                                gtol=1e-14, max_nfev=2000)
            assert fit(img).chi2 <= 2.0 * ref.cost * (1.0 + 1e-14), (t_red, shape.__name__)


def test_nonconvergence_raises_fit_error(monkeypatch):
    img = gauss_image(3e4, 40e-6, 55e-6, (64, 64), 7e-6)
    monkeypatch.setattr(imf, "_MAX_NFEV", 3)
    with pytest.raises(imf.FitError, match="did not converge in 3 evaluations"):
        imf.fit_gaussian(img)


def test_fit_independent_of_blas_threads():
    # a 256x256 image, where BLAS would split the pixel sums over threads
    code = """
import json
from fermichip import constants as C, imagefit as imf, thermo
trap = thermo.HarmonicTrap.from_frequencies_hz(823.0, 46.0, 823.0)
gas = thermo.TrappedGasState.from_reduced_temperature(
    C.builtin_species().stretched_state("K40"), trap, 4e4, 1.0)
clean = imf.synthesize_tof_image(gas, 10e-3, (256, 256), 6e-6)
fit = imf.fit_fermi_dirac(imf.add_noise(clean, 0.02 * float(clean.values.max()), seed=1))
print(json.dumps([{k: repr(v) for k, v in fit.params.items()}, repr(fit.chi2), fit.diagnostics]))
"""
    src = str(Path(imf.__file__).resolve().parents[1])
    outs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1] and json.loads(outs[0])[2]["status"] in (1, 2, 3)


def test_chi2_discrimination_bands(gas_factory):
    gas = gas_factory(0.1)
    clean = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 8e-6, 0.0)
    img = imf.synthesize_tof_image(
        gas, 10e-3, (64, 64), 8e-6, 0.02 * float(clean.values.max()), seed=7
    )
    ratio = imf.fit_gaussian(img).reduced_chi2 / imf.fit_fermi_dirac(img).reduced_chi2
    assert 2.0 <= ratio <= 5.0


def test_estimator_consistency(gas_factory):
    gas = gas_factory(0.2)
    clean = imf.synthesize_tof_image(gas, 10e-3, (40, 40), 10e-6, 0.0)
    noise = 0.02 * float(clean.values.max())
    z_fits, n_devs = [], []
    for seed in range(50):
        img = imf.synthesize_tof_image(gas, 10e-3, (40, 40), 10e-6, noise, seed=seed)
        fit = imf.fit_fermi_dirac(img)
        z_fits.append(fit.params["Z"])
        n_devs.append(fit.params["N"] - gas.n_atoms)
    assert float(np.median(z_fits)) == pytest.approx(gas.fugacity, rel=0.10)
    # no systematic sign bias in the recovered atom number
    assert abs(float(np.median(n_devs))) < 0.01 * gas.n_atoms


# -- apparent temperature ---------------------------------------------------------------------

def test_apparent_temperature_boltzmann_regime(gas_factory, science_trap, k92):
    gas = gas_factory(2.0)
    img = imf.synthesize_tof_image(gas, 10e-3, (64, 64), 25e-6, 0.0)
    fit = imf.fit_gaussian(img)
    t_app = imf.apparent_temperature(fit, science_trap, k92.species.mass, 10e-3)
    assert t_app == pytest.approx(gas.temperature, rel=0.02)


def test_apparent_temperature_monotone(gas_factory, science_trap, k92):
    t_apps = []
    for t_red, pitch in ((0.15, 8e-6), (0.4, 10e-6), (1.0, 15e-6), (2.0, 25e-6)):
        gas = gas_factory(t_red)
        img = imf.synthesize_tof_image(gas, 10e-3, (48, 48), pitch, 0.0)
        fit = imf.fit_gaussian(img)
        t_apps.append(imf.apparent_temperature(fit, science_trap, k92.species.mass, 10e-3))
    assert all(a < b for a, b in zip(t_apps, t_apps[1:]))


def test_apparent_temperature_curve_limits():
    # Boltzmann limit: apparent equals true
    assert imf.apparent_temperature_curve(5.0) == pytest.approx(1.0, rel=2e-3)
    # zero-T plateau: T_app -> T_F/4, i.e. curve(t) * t -> 1/4
    assert imf.apparent_temperature_curve(0.02) * 0.02 == pytest.approx(0.25, rel=0.01)


def test_apparent_temperature_plateau_matches_profile_moment(gas_factory, science_trap):
    # oracle: <x^2> of the zero-T profile is X_TF^2/8, reproducing T_app = T_F/4
    gas = gas_factory(0.02)
    tf_ext = density.ThomasFermiExtent.from_state(gas)
    from scipy.integrate import quad

    num = quad(lambda r: r**4 * (1 - r * r) ** 1.5, 0, 1)[0]
    den = quad(lambda r: r**2 * (1 - r * r) ** 1.5, 0, 1)[0]
    x2 = tf_ext.x**2 * (num / den) / 3.0
    t_app_insitu = x2 * gas.mass * science_trap.omega_x**2 / C.K_B
    assert t_app_insitu == pytest.approx(gas.fermi_temperature / 4.0, rel=1e-6)


def test_apparent_temperature_deviation_thresholds():
    assert imf.apparent_temperature_curve(0.5) - 1.0 > 0.05
    assert imf.apparent_temperature_curve(0.3) - 1.0 > 0.05
    assert imf.apparent_temperature_curve(1.5) - 1.0 < 0.02
    assert imf.apparent_temperature_curve(2.5) - 1.0 < 0.02
