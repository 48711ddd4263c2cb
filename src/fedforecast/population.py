"""Synthetic non-IID DER client populations.

Clients are drawn around k behavioral archetypes (round-robin: client i gets
archetype i mod k). Each archetype owns a daily load shape built from two
Fourier harmonics plus weekday/weekend, temperature, and noise behavior; the
first-harmonic phases are spread across archetypes (2*pi*a/k) so distinct
archetypes produce decorrelated daily profiles. The heterogeneity dial
``lambda`` blends each client's parameters between its archetype (0) and a
fully idiosyncratic private draw (1).

Load recipe (all non-PV classes):

    kW = base * (1 + harmonics(hour-of-day)) * weekend_factor
         + temp_coeff * |T - 19degC| + class extras (EV charging block)
         + AR(1) noise, clamped at 0

PV recipe: peak * seasonal clear-sky parabola (zero outside 06:00-18:00
local hours) * AR(1) cloud factor clipped to [0.05, 1]. Night values are
exactly 0.0 by construction.

Weather (temperature and an irradiance proxy in [0,1]) is shared per feeder
and attached to every client as covariates, so all clients share one input
dimensionality. Zeroing ``noise_scale`` removes both the additive AR(1)
noise and the cloud volatility; zeroing ``heterogeneity`` makes clients of
one archetype identical (given one feeder), which is the clean fixture for
clustering experiments. Everything is a pure function of the PopulationSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import DER_CLASSES, ClientDataset, TimeSeries
from .errors import ConfigError
from .seeds import rng_for

# der_class -> (base kW range, temperature coupling kW/degC range)
_CLASS_TRAITS = {
    "fixed_load": ((0.5, 1.5), (0.01, 0.04)),
    "hvac": ((0.8, 2.0), (0.15, 0.35)),
    "ev_charger": ((0.2, 0.5), (0.01, 0.03)),
    "battery": ((0.3, 0.8), (0.01, 0.03)),
    "pv": ((0.0, 0.0), (0.0, 0.0)),
}

_SUNRISE = 6
_SUNSET = 18
_COMFORT_C = 19.0


@dataclass(frozen=True)
class ShiftChangepoint:
    """Level shift applied from ``day`` onward (drift scenarios)."""

    day: int = 0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if not self.day >= 0:
            raise ConfigError(f"day: must be >= 0, got {self.day}")
        if not self.magnitude > -1.0:
            raise ConfigError(f"magnitude: must be > -1, got {self.magnitude}")


@dataclass(frozen=True)
class PopulationSpec:
    n_clients: int
    archetypes: int = 1
    heterogeneity: float = 0.0
    days: int = 28
    der_mix: Mapping[str, float] = field(default_factory=lambda: {"fixed_load": 1.0})
    feeders: int = 1
    changepoint: ShiftChangepoint | None = None
    seed: int = 0
    ar_coeff: float = 0.7
    noise_scale: float = 0.08

    def __post_init__(self) -> None:
        for name in ("n_clients", "days", "feeders"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.archetypes <= self.n_clients:
            raise ConfigError(f"archetypes: must be in [1, n_clients], got {self.archetypes}")
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ConfigError(f"heterogeneity: must be in [0,1], got {self.heterogeneity}")
        if not self.seed >= 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ConfigError(f"ar_coeff: must be in [0,1), got {self.ar_coeff}")
        if not self.noise_scale >= 0.0:
            raise ConfigError(f"noise_scale: must be >= 0, got {self.noise_scale}")
        for name, frac in self.der_mix.items():
            if name not in DER_CLASSES:
                raise ConfigError(f"der_mix: unknown class {name!r}; expected from {DER_CLASSES}")
            if not frac >= 0:
                raise ConfigError(f"der_mix.{name}: must be >= 0, got {frac}")
        total = sum(self.der_mix.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(f"der_mix: fractions sum to {total}, expected 1")
        object.__setattr__(self, "der_mix", dict(self.der_mix))


def _draw_params(rng: np.random.Generator, phase_center: float | None) -> dict[str, float]:
    """One parameter bundle; archetypes pin the first-harmonic phase."""
    amp1 = rng.uniform(0.30, 0.50)
    if phase_center is None:
        phase1 = rng.uniform(0.0, 2.0 * math.pi)
    else:
        phase1 = phase_center + rng.uniform(-0.15, 0.15)
    amp2 = rng.uniform(0.08, 0.18)
    phase2 = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "h1a": amp1 * math.cos(phase1),
        "h1b": amp1 * math.sin(phase1),
        "h2a": amp2 * math.cos(phase2),
        "h2b": amp2 * math.sin(phase2),
        "weekend_factor": rng.uniform(0.85, 1.25),
        "base_u": rng.uniform(0.0, 1.0),
        "temp_u": rng.uniform(0.0, 1.0),
        "ev_start": rng.uniform(17.0, 21.0),
        "ev_duration": rng.uniform(2.0, 5.0),
        "ev_kw": rng.uniform(3.0, 7.0),
        "pv_peak": rng.uniform(2.0, 4.0),
    }


def _blend(arch: dict[str, float], own: dict[str, float], lam: float) -> dict[str, float]:
    return {key: (1.0 - lam) * arch[key] + lam * own[key] for key in arch}


def _assign_der_classes(spec: PopulationSpec) -> list[str]:
    """Largest-remainder apportionment of der_mix, deterministically shuffled."""
    n = spec.n_clients
    names = sorted(spec.der_mix)
    counts = {name: math.floor(spec.der_mix[name] * n) for name in names}
    remainders = sorted(
        names, key=lambda name: (-(spec.der_mix[name] * n - counts[name]), name)
    )
    short = n - sum(counts.values())
    for name in remainders[:short]:
        counts[name] += 1
    ordered = [name for name in names for _ in range(counts[name])]
    perm = rng_for(spec.seed, "der-mix").permutation(n)
    return [ordered[j] for j in perm]


def _ar1(rng: np.random.Generator, n: int, coeff: float, sigma: float) -> np.ndarray:
    innovations = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    out = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = coeff * prev + innovations[t]
        out[t] = prev
    return out


def _day_of_week(day_index: np.ndarray) -> np.ndarray:
    # epoch day 0 (1970-01-01) was a Thursday; map to Monday=0..Sunday=6
    return (day_index + 3) % 7


def _clear_sky(hours: np.ndarray) -> np.ndarray:
    """Seasonal parabola, exactly 0 outside the daylight window."""
    hod = hours % 24
    doy = (hours // 24) % 365
    half = (_SUNSET - _SUNRISE) / 2.0
    noon = (_SUNSET + _SUNRISE) / 2.0
    parab = 1.0 - ((hod - noon) / half) ** 2
    parab = np.where((hod > _SUNRISE) & (hod < _SUNSET), np.maximum(parab, 0.0), 0.0)
    season = 0.75 + 0.25 * np.cos(2.0 * math.pi * (doy - 172) / 365.0)
    return season * parab


def _feeder_weather(spec: PopulationSpec, feeder: int, hours: np.ndarray):
    """Shared temperature (degC) and irradiance proxy in [0,1] for one feeder."""
    hod = hours % 24
    doy = (hours // 24) % 365
    rng = rng_for(spec.seed, "weather", feeder)
    temp = (
        12.0
        + 8.0 * np.cos(2.0 * math.pi * (doy - 200) / 365.0)
        + 4.0 * np.cos(2.0 * math.pi * (hod - 15) / 24.0)
        + _ar1(rng, hours.shape[0], 0.8, 1.5)
    )
    cloud = np.clip(0.85 + _ar1(rng, hours.shape[0], 0.85, 2.25 * spec.noise_scale), 0.05, 1.0)
    irradiance = _clear_sky(hours) * cloud
    return temp, np.clip(irradiance, 0.0, 1.0)


def _class_scaled(p: dict[str, float], der_class: str) -> tuple[float, float]:
    (base_lo, base_hi), (tc_lo, tc_hi) = _CLASS_TRAITS[der_class]
    base = base_lo + p["base_u"] * (base_hi - base_lo)
    temp_coeff = tc_lo + p["temp_u"] * (tc_hi - tc_lo)
    return base, temp_coeff


def _synthesize(
    spec: PopulationSpec,
    p: dict[str, float],
    der_class: str,
    temperature: np.ndarray,
    hours: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    n = hours.shape[0]
    hod = hours % 24
    day = hours // 24
    if der_class == "pv":
        cloud = np.clip(
            0.85 + _ar1(rng, n, 0.85, 2.25 * spec.noise_scale), 0.05, 1.0
        )
        values = p["pv_peak"] * _clear_sky(hours) * cloud
    else:
        omega = 2.0 * math.pi / 24.0
        shape = (
            1.0
            + p["h1a"] * np.cos(omega * hod)
            + p["h1b"] * np.sin(omega * hod)
            + p["h2a"] * np.cos(2.0 * omega * hod)
            + p["h2b"] * np.sin(2.0 * omega * hod)
        )
        base, temp_coeff = _class_scaled(p, der_class)
        values = base * shape
        weekend = _day_of_week(day) >= 5
        values = values * np.where(weekend, p["weekend_factor"], 1.0)
        values = values + temp_coeff * np.abs(temperature - _COMFORT_C)
        if der_class == "ev_charger":
            start = int(round(p["ev_start"])) % 24
            length = max(1, int(round(p["ev_duration"])))
            in_block = ((hod - start) % 24) < length
            values = values + p["ev_kw"] * in_block
        if spec.noise_scale > 0:
            values = values + _ar1(rng, n, spec.ar_coeff, spec.noise_scale * base)
    if spec.changepoint is not None:
        factor = np.where(day >= spec.changepoint.day, 1.0 + spec.changepoint.magnitude, 1.0)
        values = values * factor
    return np.maximum(values, 0.0)


def generate_population(spec: PopulationSpec) -> list[ClientDataset]:
    """Generate the client datasets described by ``spec``.

    Deterministic: every random stream derives from spec.seed, so two calls
    with equal specs return identical data.
    """
    k = spec.archetypes
    arch_params = [
        _draw_params(rng_for(spec.seed, "archetype", a), 2.0 * math.pi * a / k)
        for a in range(k)
    ]
    der_classes = _assign_der_classes(spec)
    n_hours = spec.days * 24
    hours = np.arange(n_hours, dtype=np.int64)
    weather = [_feeder_weather(spec, f, hours) for f in range(spec.feeders)]
    width = max(3, len(str(spec.n_clients - 1)))

    datasets = []
    for i in range(spec.n_clients):
        archetype = i % k
        feeder = i % spec.feeders
        own = _draw_params(rng_for(spec.seed, "client-own", i), None)
        params = _blend(arch_params[archetype], own, spec.heterogeneity)
        temperature, irradiance = weather[feeder]
        values = _synthesize(
            spec, params, der_classes[i], temperature, hours,
            rng_for(spec.seed, "noise", i),
        )
        datasets.append(
            ClientDataset(
                client_id=f"c{i:0{width}d}",
                series=TimeSeries(start_epoch_hours=0, values=values),
                covariates={"irradiance": irradiance, "temperature": temperature},
                der_class=der_classes[i],
                feeder_id=f"F{feeder}",
                archetype_id=archetype,
            )
        )
    return datasets
