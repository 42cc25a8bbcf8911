"""Domain types, configuration ingestion and validation.

The systems handled throughout the package have the form

    du/dt = D * lap^3(u) + sum_i T[i] * du/dx_i - F(u),    x in R^d,

with u an N-component real field, D ("diffusion") and T[1..d] ("transport")
constant N x N matrices and F a pointwise interaction term.  D + D^T must be
positive definite.  R^d is truncated to a periodic box; decaying data is
expected to live well inside it.  All fields are real valued.

Conventions:
  * component and matrix indices are 0-based throughout the Python API,
  * grids use centred coordinates, the origin is the sample at index n//2
    per axis,
  * arrays held by the frozen types are marked read-only; treat every
    instance as immutable and share freely across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "ConfigError",
    "DimensionMismatchError",
    "PositivityError",
    "Grid",
    "Field",
    "Reaction",
    "PolynomialReaction",
    "SystemSpec",
    "Violation",
    "AuditReport",
    "as_square_matrix",
    "parse_config",
    "load_system",
    "load_grid",
]


class ConfigError(ValueError):
    """Malformed or unparseable system configuration."""


class DimensionMismatchError(ConfigError):
    """Matrix or vector sizes inconsistent with the declared d and N."""


class PositivityError(ConfigError):
    """D + D^T is not positive definite."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            "diffusion matrix fails positivity: smallest eigenvalue of "
            f"(D + D^T)/2 is {self.min_eigenvalue:.6g} (must be > 0)"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_square_matrix(entries, side: int | None = None, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite real square matrix as a read-only array."""
    try:
        m = np.array(entries)
    except ValueError:  # ragged rows
        m = None
    # numpy reads booleans mixed with numbers as 0/1; they are rejected like all-boolean rows
    if m is None or m.dtype.kind not in "iuf" or any(
        isinstance(x, (bool, np.bool_)) for x in np.array(entries, dtype=object).flat
    ):
        raise ConfigError(f"field '{name}': expected a square matrix of real numbers, got {entries!r}")
    m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"field '{name}': expected a square matrix, got shape {m.shape}")
    if side is not None and m.shape[0] != side:
        raise DimensionMismatchError(f"field '{name}': expected side {side}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"field '{name}': entries must all be finite")
    return _readonly(m)


_HALF_MAX = np.finfo(float).max / 2.0


@dataclass(frozen=True)
class Grid:
    """Periodic box discretisation: n samples per axis over side length box.

    Wavenumbers follow the standard symmetric DFT layout
    xi = 2*pi*m/box, m = 0, 1, ..., n/2-1, -n/2, ..., -1; the unmatched
    Nyquist frequency has its odd-derivative multiplier zeroed so first
    derivatives of real fields stay real.  The half_* meshes hold the same
    multipliers on the real half spectrum (np.fft.rfftn layout, whose last
    axis keeps m = 0, ..., n/2).  A derivative mesh is one axis vector shaped
    to broadcast, (1, ..., n, ..., 1); |xi|^6 and the dealiasing mask are full.
    """

    d: int
    n: int
    box: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigError(f"grid: d must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"grid: n must be a power of two >= 8, got {self.n}")
        if not (np.isfinite(self.box) and self.box > 0):
            raise ConfigError(f"grid: box must be positive and finite, got {self.box}")
        # the largest |x|^2 (corner sample) and |xi|^6 (corner Nyquist mode); half
        # the largest double leaves room for the meshes' own rounding of them
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            x2 = self.d * np.float64(self.box / 2.0) ** 2
            k6 = (self.d * (np.pi * self.n / np.float64(self.box)) ** 2) ** 3
        if not (x2 <= _HALF_MAX and 0.0 < k6 <= _HALF_MAX):
            raise ConfigError(
                f"grid: box must keep the largest |x|^2 and |xi|^6 positive and finite, "
                f"got {self.box:g} (|x|^2 = {x2:g}, |xi|^6 = {k6:g})"
            )

    @property
    def spacing(self) -> float:
        return self.box / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def origin_index(self) -> tuple[int, ...]:
        return (self.n // 2,) * self.d

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Centred sample coordinates of one axis; the origin is a sample."""
        return _readonly((np.arange(self.n) - self.n // 2) * self.spacing)

    @cached_property
    def distinct_radii(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|x| on the grid as (radii, index, fold).

        The sample (i_1, ..., i_d) lies at radius radii[index[fold[i_1], ...,
        fold[i_d]]].  |x| depends only on the |i_a - n/2|, so it is formed on
        that folded mesh of (n/2+1)^d samples, summing x_a * x_a in axis order:
        the same bits as sqrt(sum(x * x for x in coord_mesh)).
        """
        half = self.n // 2
        folded = np.abs(self.axis_coords[half::-1])  # |x| = 0, h, ..., (n/2) h
        mesh = np.meshgrid(*(folded,) * self.d, indexing="ij", sparse=True)
        r = np.sqrt(sum(x * x for x in mesh))
        radii, index = np.unique(r, return_inverse=True)
        fold = np.abs(np.arange(self.n) - half)
        return _readonly(radii), _readonly(index.reshape(r.shape)), _readonly(fold)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing))

    @cached_property
    def deriv_wavenumbers(self) -> np.ndarray:
        k = self.wavenumbers.copy()
        k[self.n // 2] = 0.0  # unmatched Nyquist mode: odd-derivative multiplier zero
        return _readonly(k)

    @property
    def coord_mesh(self) -> tuple[np.ndarray, ...]:
        """Axis coordinates shaped to broadcast against each other, one per axis."""
        return tuple(
            self.axis_coords.reshape((1,) * i + (-1,) + (1,) * (self.d - 1 - i))
            for i in range(self.d)
        )

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Modes of a real field's half spectrum (np.fft.rfftn layout)."""
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

    def _spectral_meshes(self, per_axis: np.ndarray, half: bool) -> list[np.ndarray]:
        # the half-spectrum meshes are the full ones with the last axis cut to
        # n//2 + 1; every multiplier below is even in that axis or zero at its
        # Nyquist entry, so the cut is exact
        last = per_axis[: self.n // 2 + 1] if half else per_axis
        return np.meshgrid(*(per_axis,) * (self.d - 1), last, indexing="ij", sparse=True)

    def _k_squared(self, half: bool) -> np.ndarray:
        return sum(m**2 for m in self._spectral_meshes(self.wavenumbers, half))

    @cached_property
    def k_sixth(self) -> np.ndarray:
        # |xi|^6 as (|xi|^2)^3, matching lap^3 = (lap)^3 composition
        return _readonly(self._k_squared(half=False) ** 3)

    @cached_property
    def half_k_sixth(self) -> np.ndarray:
        return _readonly(self._k_squared(half=True) ** 3)

    @cached_property
    def deriv_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _readonly(m) for m in self._spectral_meshes(self.deriv_wavenumbers, half=False)
        )

    @cached_property
    def half_deriv_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _readonly(m) for m in self._spectral_meshes(self.deriv_wavenumbers, half=True)
        )

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the half spectrum: True on retained modes."""
        m = np.abs(np.fft.fftfreq(self.n) * self.n)
        return _readonly(reduce(np.logical_and, self._spectral_meshes(m < self.n / 3.0, half=True)))


@dataclass(frozen=True, eq=False)
class Field:
    """N real components sampled on a grid; values shape (ncomp, n, ..., n)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != self.grid.d + 1 or v.shape[1:] != self.grid.shape:
            raise DimensionMismatchError(
                f"field values shape {v.shape} does not match grid shape "
                f"(ncomp,) + {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("field values must all be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]


class Reaction:
    """Pointwise interaction term F; the right-hand side subtracts it."""

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Evaluate F componentwise; values has shape (ncomp, ...).

        Returns a new array, which the caller may overwrite.
        """
        raise NotImplementedError

    def linear_matrix(self) -> np.ndarray | None:
        """Read-only N x N L with F(u) = L u exactly, or None (the default: not linear)."""

    def validate(self, ncomp: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class PolynomialReaction(Reaction):
    """Per-component sums of monomials coeff * prod_l u_l**e_l; N is len(terms).

    F = L u is the polynomial of degree-1 terms (`from_matrix`), and F = 0
    the one with no terms, ((),) * N.
    """

    terms: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]

    def __post_init__(self):
        norm = tuple(
            tuple(
                _monomial(c, expo, f"reaction.terms[{k}][{i}]") for i, (c, expo) in enumerate(comp)
            )
            for k, comp in enumerate(self.terms)
        )
        object.__setattr__(self, "terms", norm)

    @classmethod
    def from_matrix(cls, matrix) -> PolynomialReaction:
        """F = L u: component k gets one term L[k, j] * u_j per nonzero entry, in column order.

        An entry of 0.0 or -0.0 has no term, so `linear_matrix` holds +0.0 there.
        """
        rows = np.asarray(matrix, dtype=float).tolist()
        return cls(tuple(
            tuple(
                (c, tuple(int(l == j) for l in range(len(row))))
                for j, c in enumerate(row)
                if c != 0.0
            )
            for row in rows
        ))

    def evaluate(self, values):
        out = np.zeros_like(values)
        # overflow is allowed to produce inf here; callers treat non-finite
        # results as evaluation failure
        with np.errstate(over="ignore", invalid="ignore"):
            for k, comp in enumerate(self.terms):
                for coeff, expo in comp:
                    # factors multiply in component order after the scalar
                    # coefficient, and u**1 is u itself; a coefficient of 1.0 or
                    # -1.0 is not multiplied in but picks between adding and
                    # subtracting the product, with the same bits
                    factors = [values[l] if e == 1 else values[l] ** e
                               for l, e in enumerate(expo) if e]
                    signed = bool(factors) and abs(coeff) == 1.0
                    term = factors[0] if signed else coeff
                    for factor in factors[1:] if signed else factors:
                        term = term * factor
                    if signed and coeff < 0.0:
                        out[k] -= term
                    else:
                        out[k] += term
        return out

    def linear_matrix(self):
        """L when every term has degree 1 (equal exponents add); else None, even for 0 * u^2."""
        mat = np.zeros((len(self.terms),) * 2)
        for k, comp in enumerate(self.terms):
            for coeff, expo in comp:
                if sum(expo) != 1:
                    return None
                mat[k, expo.index(1)] += coeff
        return _readonly(mat)

    def validate(self, ncomp):
        if len(self.terms) != ncomp:
            raise DimensionMismatchError(
                f"polynomial reaction: {len(self.terms)} component term lists for N={ncomp}"
            )
        for k, comp in enumerate(self.terms):
            for _, expo in comp:
                if len(expo) != ncomp:
                    raise DimensionMismatchError(
                        f"polynomial reaction: component {k} has an exponent vector of "
                        f"length {len(expo)}, expected {ncomp}"
                    )


# above this, u**e is inf for every |u| >= 2 and below the normal range for every |u| <= 1/2
MAX_EXPONENT = 1024


def _monomial(coeff, exponents, at: str) -> tuple[float, tuple[int, ...]]:
    """(coeff, exponents) as a finite float and ints in 0..MAX_EXPONENT; errors name the field `at`."""
    c = _as_number(coeff, f"{at}.coeff", integer=False)
    if not math.isfinite(c):
        raise ConfigError(f"field '{at}.coeff': coefficients must be finite")
    expo = tuple(_as_number(e, f"{at}.exponents", integer=True) for e in exponents)
    if any(e < 0 for e in expo):
        raise ConfigError(f"field '{at}.exponents': exponents must be nonnegative")
    if any(e > MAX_EXPONENT for e in expo):
        raise ConfigError(f"field '{at}.exponents': exponents must be at most {MAX_EXPONENT}")
    return c, expo


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Validated system data: dimension, diffusion/transport matrices, reaction.

    The reaction defaults to F = 0, the polynomial with no terms.
    """

    d: int
    ncomp: int
    diffusion: np.ndarray
    transport: tuple[np.ndarray, ...]
    reaction: Reaction | None = None

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigError(f"d must be 1, 2 or 3, got {self.d}")
        if self.ncomp < 1:
            raise ConfigError(f"N must be >= 1, got {self.ncomp}")
        diff = as_square_matrix(self.diffusion, side=self.ncomp, name="A")
        gammas = tuple(self.transport)
        if len(gammas) != self.d:
            raise DimensionMismatchError(
                f"expected {self.d} transport matrices (one per axis), got {len(gammas)}"
            )
        gammas = tuple(
            as_square_matrix(g, side=self.ncomp, name=f"Gamma[{i}]")
            for i, g in enumerate(gammas)
        )
        if self.reaction is None:  # built once D has checked N
            object.__setattr__(self, "reaction", PolynomialReaction(((),) * self.ncomp))
        self.reaction.validate(self.ncomp)
        object.__setattr__(self, "diffusion", diff)
        object.__setattr__(self, "transport", gammas)
        sym_min = self.symmetrized_min_eigenvalue
        if not sym_min > 0.0:
            raise PositivityError(sym_min)

    @cached_property
    def symmetrized_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of (D + D^T)/2; NaN when any eigenvalue is not finite."""
        # halving first keeps the symmetric part finite for every finite D
        eigs = np.linalg.eigvalsh(self.diffusion / 2.0 + self.diffusion.T / 2.0)
        return float(eigs.min()) if np.all(np.isfinite(eigs)) else math.nan


@dataclass(frozen=True)
class Violation:
    """One located rule violation; `site` is a JSON-ready locator dict."""

    rule: str
    site: dict
    value: float

    def to_dict(self) -> dict:
        value = self.value if math.isfinite(self.value) else None
        return {"rule": self.rule, "site": self.site, "value": value}


@dataclass(frozen=True)
class AuditReport:
    """Structured verdict of the structural nonnegativity audit."""

    diffusion_ok: bool
    transport_ok: bool
    reaction_ok: bool
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def overall(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "diffusion_ok": self.diffusion_ok,
            "transport_ok": self.transport_ok,
            "reaction_ok": self.reaction_ok,
            "warnings": [w.to_dict() for w in self.warnings],
            "violations": [v.to_dict() for v in self.violations],
        }


# ---------------------------------------------------------------------------
# configuration ingestion


def parse_config(text: str) -> dict:
    """Parse the JSON config, reporting the offending line on syntax errors."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _reaction_from_config(node, ncomp: int) -> Reaction | None:
    """The config's reaction; None for kind "zero", SystemSpec's default."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError("field 'reaction': expected an object with a 'kind'")
    kind = node["kind"]
    if kind == "zero":
        return None
    if kind == "linear":
        if "L" not in node:
            raise ConfigError("field 'reaction.L': required for kind 'linear'")
        matrix = as_square_matrix(node["L"], side=ncomp, name="reaction.L")
        return PolynomialReaction.from_matrix(matrix)
    if kind == "polynomial":
        if "terms" not in node:
            raise ConfigError("field 'reaction.terms': required for kind 'polynomial'")
        try:
            terms = tuple(
                tuple((mono["coeff"], tuple(mono["exponents"])) for mono in comp)
                for comp in node["terms"]
            )
        except (TypeError, KeyError):
            raise ConfigError(
                "field 'reaction.terms': expected per-component lists of "
                "{'coeff': real, 'exponents': [int]} objects"
            )
        return PolynomialReaction(terms)
    raise ConfigError(f"field 'reaction.kind': unknown kind {kind!r}")


def _config_number(node: dict, key: str, name: str, integer: bool):
    """node[key] checked by _as_number; a missing key names the field."""
    if key not in node:
        raise ConfigError(f"field '{name}': missing")
    return _as_number(node[key], name, integer)


def _as_number(value, name: str, integer: bool):
    """value as an int (integer=True, integral values only) or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"field '{name}': expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"field '{name}': number beyond floating-point range")
    if not integer:
        return x
    if not (math.isfinite(x) and value == int(value)):
        raise ConfigError(f"field '{name}': expected an integer, got {value!r}")
    return int(value)


def load_system(config_text: str) -> SystemSpec:
    """Build a validated SystemSpec from config text.

    Raises ConfigError (parse/field problems), DimensionMismatchError or
    PositivityError (naming the smallest symmetric eigenvalue).
    """
    cfg = parse_config(config_text)
    for key in ("d", "N", "A", "Gamma", "reaction"):
        if key not in cfg:
            raise ConfigError(f"field '{key}': missing")
    d = _config_number(cfg, "d", "d", integer=True)
    ncomp = _config_number(cfg, "N", "N", integer=True)
    gammas = cfg["Gamma"]
    if not isinstance(gammas, list):
        raise ConfigError("field 'Gamma': expected a list of d matrices")
    return SystemSpec(
        d=d,
        ncomp=ncomp,
        diffusion=cfg["A"],
        transport=tuple(gammas),
        reaction=_reaction_from_config(cfg["reaction"], ncomp),
    )


def load_grid(config_text: str) -> Grid:
    """Build the Grid described by the config's 'grid' block."""
    cfg = parse_config(config_text)
    if "grid" not in cfg:
        raise ConfigError("field 'grid': missing")
    node = cfg["grid"]
    if not isinstance(node, dict):
        raise ConfigError("field 'grid': expected an object with 'n' and 'box'")
    return Grid(
        d=_config_number(cfg, "d", "d", integer=True),
        n=_config_number(node, "n", "grid.n", integer=True),
        box=_config_number(node, "box", "grid.box", integer=False),
    )

