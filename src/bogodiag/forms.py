"""Real quadratic forms in ladder operators and Bogoliubov transformations.

Operator conventions (see CONVENTIONS.md): ``a_i`` is a creation operator and
``a_i^+`` its adjoint annihilation operator, so ``a_i^+`` kills the vacuum.
A real quadratic form is the self-adjoint operator

    H = U_ij a_i^+ a_j^+ + V_ij (a_i a_j^+ + a_j a_i^+) +/- U_ij a_i a_j + const

with the ``+`` sign and symmetric U for bosons, the ``-`` sign and
antisymmetric U for fermions; V is symmetric in both cases.

Every form can be rewritten in a normal form built from the self-adjoint
combinations ``a_i + a_i^+`` and the skew combinations ``a_i - a_i^+``:

    bosons:   H = T_ij (a_i+a_i^+)(a_j+a_j^+) + R_ij (a_i-a_i^+)(a_j-a_j^+) + k0
    fermions: H = C_ij (a_i+a_i^+)(a_j^+-a_j) + k0

with T = (U+V)/2, R = (U-V)/2, C = U+V.  The constants k0 absorb both the
original additive constant and the reordering terms; they are fixed by exact
operator equality on the Fock space (tests/test_conventions.py).

A Bogoliubov transformation is stored as the blocks it acts with on the
normal form: an invertible S for bosons, an orthogonal pair (O_+, O_-) for
fermions:

    bosons:   T -> S T S^t,  R -> S^-t R S^-1
    fermions: C -> O_+ C O_-

Every invertible S is canonical; a fermionic pair must be orthogonal within
TOL_CANON.  A transform is positive when it preserves orientation: det S > 0
for bosons, det O_+ = det O_- = +1 for fermions.  Positive transforms are
isospectral and preserve fermionic parity sectors.  The pair (P, Q) of the
operator substitution is P = (S + S^-t)/2, Q = (S - S^-t)/2 for bosons, and
O_+ = Q + P, O_- = Q - P for fermions (CONVENTIONS.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonCanonicalTransform, ValidationError

#: Tolerance for the symmetry checks of U and V, relative to their largest entry.
TOL_SYM = 1e-9

#: Tolerance for the orthogonality residual of a fermionic transform.
TOL_CANON = 1e-9

#: Bound on the log singular values of a random bosonic transform.
CANONICAL_SPREAD = 0.45


class Statistics(enum.Enum):
    """Particle statistics selecting the commutation relations."""

    BOSON = "boson"
    FERMION = "fermion"


def _as_square_matrix(m, name: str, n: Optional[int] = None) -> np.ndarray:
    try:
        arr = np.array(m, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric square matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} must be {n}x{n}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _deviation(m: np.ndarray, sign: float) -> float:
    """max |m - sign * m^t|; finite entries overflow only to inf, never NaN."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(m - sign * m.T))) if m.size else 0.0


@dataclass(frozen=True)
class QuadraticForm:
    """A real quadratic form: coefficient matrices U, V and a constant."""

    statistics: Statistics
    U: np.ndarray
    V: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        u = _as_square_matrix(self.U, "U")
        v = _as_square_matrix(self.V, "V", u.shape[0])
        if u.shape[0] < 1:
            raise ValidationError("mode count must be at least 1")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "const", float(self.const))

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def scale(self) -> float:
        """Largest absolute entry of U and V, the scale that the symmetry
        check of :func:`validate` and the tolerance of ``verify`` are
        relative to."""
        return float(max(np.abs(self.U).max(initial=0.0), np.abs(self.V).max(initial=0.0)))

    def to_dict(self) -> dict:
        return {
            "statistics": self.statistics.value,
            "n": self.n,
            "U": self.U.tolist(),
            "V": self.V.tolist(),
            "const": self.const,
        }


@dataclass(frozen=True)
class StandardForm:
    """Normal-form data: (T, R) for bosons, C for fermions, plus constant k0."""

    statistics: Statistics
    k0: float = 0.0
    T: Optional[np.ndarray] = None
    R: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.statistics is Statistics.BOSON:
            if self.T is None or self.R is None:
                raise ValidationError("bosonic standard form requires T and R")
            t = _as_square_matrix(self.T, "T")
            r = _as_square_matrix(self.R, "R", t.shape[0])
            object.__setattr__(self, "T", t)
            object.__setattr__(self, "R", r)
        else:
            if self.C is None:
                raise ValidationError("fermionic standard form requires C")
            c = _as_square_matrix(self.C, "C")
            object.__setattr__(self, "C", c)
        object.__setattr__(self, "k0", float(self.k0))

    @property
    def n(self) -> int:
        mat = self.T if self.statistics is Statistics.BOSON else self.C
        return mat.shape[0]


@dataclass(frozen=True)
class BogoliubovTransform:
    """A canonical real Bogoliubov transformation: S for bosons, the
    orthogonal pair (O_+, O_-) for fermions."""

    statistics: Statistics
    S: Optional[np.ndarray] = None
    o_plus: Optional[np.ndarray] = None
    o_minus: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.statistics is Statistics.BOSON:
            if self.S is None:
                raise ValidationError("bosonic transform requires S")
            object.__setattr__(self, "S", _as_square_matrix(self.S, "S"))
            return
        if self.o_plus is None or self.o_minus is None:
            raise ValidationError("fermionic transform requires o_plus and o_minus")
        op = _as_square_matrix(self.o_plus, "o_plus")
        om = _as_square_matrix(self.o_minus, "o_minus", op.shape[0])
        # np.max, not max(): a NaN residual must propagate to the refusal
        dev = float(np.max(np.abs(np.stack([op.T @ op, om.T @ om]) - np.eye(op.shape[0])),
                           initial=0.0))
        if not dev <= TOL_CANON:
            raise NonCanonicalTransform(f"o_plus and o_minus are not orthogonal (residual {dev:.3e})")
        object.__setattr__(self, "o_plus", op)
        object.__setattr__(self, "o_minus", om)

    @property
    def n(self) -> int:
        mat = self.S if self.statistics is Statistics.BOSON else self.o_plus
        return mat.shape[0]


@dataclass(frozen=True)
class Violation:
    """One violated invariant of a quadratic form."""

    check: str
    message: str
    deviation: float


def _normal_coefficients(form: QuadraticForm) -> tuple[float, dict]:
    """The normal-form constant k0 and matrices ((T, R) or C) of a form.

    Huge finite entries may overflow to inf here; the caller checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if form.statistics is Statistics.BOSON:
            k0 = form.const - float(np.trace(form.V))
            return k0, {"T": (form.U + form.V) / 2.0, "R": (form.U - form.V) / 2.0}
        c = form.U + form.V
        return form.const + float(np.trace(c)), {"C": c}


def validate(form: QuadraticForm) -> list[Violation]:
    """Check the structural invariants of a form.

    Returns a list of violations (empty means valid), each carrying the
    maximal deviation of the corresponding check.  U and V must be
    (anti)symmetric within TOL_SYM times their largest absolute entry, the
    tolerance every command applies through :func:`to_standard`, so a
    rescaled form keeps its verdict.  Finite entries whose normal-form
    coefficients, or for bosons the pencil R T, overflow count as
    non-finite.
    """
    out = []
    finite = np.isfinite(form.U).all() and np.isfinite(form.V).all() and np.isfinite(form.const)
    if not finite:
        out.append(Violation("finite", "non-finite entries", float("inf")))
        return out
    limit = TOL_SYM * form.scale
    dev_v = _deviation(form.V, 1.0)
    if dev_v > limit:
        out.append(Violation("V_symmetric", "V not symmetric", dev_v))
    if form.statistics is Statistics.BOSON:
        dev_u = _deviation(form.U, 1.0)
        if dev_u > limit:
            out.append(Violation("U_symmetric", "U not symmetric", dev_u))
    else:
        dev_u = _deviation(form.U, -1.0)
        if dev_u > limit:
            out.append(Violation("U_antisymmetric", "U not antisymmetric", dev_u))
    k0, mats = _normal_coefficients(form)
    overflowed = [name for name, m in mats.items() if not np.isfinite(m).all()]
    if form.statistics is Statistics.BOSON and not overflowed:
        # the bosonic diagonalization works on the pencil R T
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(mats["R"] @ mats["T"]).all():
                overflowed.append("R T")
    if not np.isfinite(k0):
        overflowed.append("k0")
    if overflowed:
        out.append(Violation("derived_finite",
                             f"normal-form {', '.join(overflowed)} not finite (overflow)",
                             float("inf")))
    return out


def to_standard(form: QuadraticForm) -> StandardForm:
    """Rewrite a valid quadratic form in its normal form.

    Bosons: T = (U+V)/2, R = (U-V)/2, k0 = const - Tr V.
    Fermions: C = U+V, k0 = const + Tr C.

    The k0 values make the normal form equal the defining operator exactly
    on the Fock space (reordering a_i^+ a_j into a_j a_i^+ produces traces).
    """
    violations = validate(form)
    if violations:
        raise ValidationError("invalid form: " + "; ".join(v.message for v in violations), violations)
    k0, mats = _normal_coefficients(form)
    return StandardForm(statistics=form.statistics, k0=k0, **mats)


def from_standard(std: StandardForm) -> QuadraticForm:
    """Invert :func:`to_standard`, recovering (U, V, const)."""
    if std.statistics is Statistics.BOSON:
        u = std.T + std.R
        v = std.T - std.R
        const = std.k0 + float(np.trace(v))
        return QuadraticForm(statistics=Statistics.BOSON, U=u, V=v, const=const)
    u = (std.C - std.C.T) / 2.0
    v = (std.C + std.C.T) / 2.0
    const = std.k0 - float(np.trace(std.C))
    return QuadraticForm(statistics=Statistics.FERMION, U=u, V=v, const=const)


def is_positive(b: BogoliubovTransform) -> bool:
    """Orientation predicate selecting the isospectral transform class."""
    if b.statistics is Statistics.BOSON:
        return bool(np.linalg.det(b.S) > 0)
    return (
        abs(np.linalg.det(b.o_plus) - 1.0) <= TOL_CANON
        and abs(np.linalg.det(b.o_minus) - 1.0) <= TOL_CANON
    )


def _check_compatible(first, second, what: str) -> None:
    if first.statistics is not second.statistics:
        raise NonCanonicalTransform(f"statistics of {what} differ")
    if first.n != second.n:
        raise NonCanonicalTransform(f"mode counts of {what} differ ({first.n} and {second.n})")


def apply_transform(std: StandardForm, b: BogoliubovTransform) -> StandardForm:
    """Transform the normal-form coefficients by a canonical transform.

    The constant k0 is unchanged: the transform is a change of operator
    basis, not of operator.
    """
    _check_compatible(std, b, "form and transform")
    if std.statistics is Statistics.BOSON:
        s = b.S
        try:
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            raise NonCanonicalTransform("singular S") from None
        t = s @ std.T @ s.T
        r = s_inv.T @ std.R @ s_inv
        return StandardForm(statistics=Statistics.BOSON, T=t, R=r, k0=std.k0)
    c = b.o_plus @ std.C @ b.o_minus
    return StandardForm(statistics=Statistics.FERMION, C=c, k0=std.k0)


def compose(second: BogoliubovTransform, first: BogoliubovTransform) -> BogoliubovTransform:
    """The single transform equivalent to applying `first`, then `second`."""
    _check_compatible(second, first, "transforms")
    if second.statistics is Statistics.BOSON:
        return BogoliubovTransform(Statistics.BOSON, S=second.S @ first.S)
    return BogoliubovTransform(Statistics.FERMION, o_plus=second.o_plus @ first.o_plus,
                               o_minus=first.o_minus @ second.o_minus)


def _haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * np.where(d >= 0.0, 1.0, -1.0)


def _haar_special_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q = _haar_orthogonal(rng, n)
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] *= -1.0
    return q


def random_canonical(statistics: Statistics, n: int, seed: int = 0,
                     positive: bool = True) -> BogoliubovTransform:
    """Draw a random canonical transform, positive by default.

    Fermions: O_+ and O_- are Haar draws from SO(n) (O(n) if not positive).
    Bosons: S = O1 diag(exp u) O2 with Haar SO factors and
    |u| <= CANONICAL_SPREAD, so the conditioning stays moderate; det S > 0
    gives a positive transform.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    if statistics is Statistics.FERMION:
        draw = _haar_special_orthogonal if positive else _haar_orthogonal
        return BogoliubovTransform(Statistics.FERMION, o_plus=draw(rng, n), o_minus=draw(rng, n))
    o1 = _haar_special_orthogonal(rng, n)
    o2 = _haar_special_orthogonal(rng, n)
    u = rng.uniform(-CANONICAL_SPREAD, CANONICAL_SPREAD, size=n)
    s = o1 @ np.diag(np.exp(u)) @ o2
    if not positive and rng.random() < 0.5:
        s = s.copy()
        s[:, 0] *= -1.0
    return BogoliubovTransform(Statistics.BOSON, S=s)


def _is_number_type(kind: type) -> bool:
    """The type of a JSON number (or a numpy one); bool, though a subclass
    of int, is not."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


def _number_array(value) -> np.ndarray:
    """`value`, a number or nested lists of numbers, as a float array.  An
    entry that is not a number (a string, a bool or null) raises TypeError,
    ragged lists or lists nested deeper than a matrix ValueError and an
    integer beyond the float range OverflowError; NaN and infinities pass."""
    entries = np.array(value, dtype=object)
    if entries.ndim > 2:  # and so before .flat, which refuses more than 32
        raise ValueError(f"entries nested {entries.ndim} deep")
    if not all(map(_is_number_type, set(map(type, entries.flat)))):
        raise TypeError("entries must be numbers")
    return entries.astype(float)


def _matrix_from_dict(data: dict, key: str, n: int) -> np.ndarray:
    try:
        arr = _number_array(data[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"missing or malformed matrix {key!r}") from exc
    if arr.shape != (n, n):
        raise ValidationError(f"matrix {key!r} must be {n}x{n}, got shape {arr.shape}")
    return arr


def _statistics_from_dict(data: dict) -> Statistics:
    try:
        return Statistics(data["statistics"])
    except (KeyError, ValueError) as exc:
        raise ValidationError("statistics must be 'boson' or 'fermion'") from exc


def _integer_from_dict(data, key: str, message: str) -> int:
    """data[key] as an int.  JSON integers and integral floats pass; a missing
    key, a bool, a string, a fraction, NaN or an infinity (JSON's 1e999 or
    Infinity) raises ValidationError(message)."""
    try:
        value = data[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(message) from exc
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(message)
    return value


def _require_object(data, what: str) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")


def form_from_dict(data: dict) -> QuadraticForm:
    """Parse the JSON form schema {statistics, n, U, V, const}."""
    _require_object(data, "form")
    stats = _statistics_from_dict(data)
    n = _integer_from_dict(data, "n", "missing or malformed mode count 'n'")
    u = _matrix_from_dict(data, "U", n)
    v = _matrix_from_dict(data, "V", n)
    const = data.get("const", 0.0)
    if not _is_number_type(type(const)):
        raise ValidationError("constant 'const' must be a number")
    try:
        const = float(const)
    except OverflowError:
        raise ValidationError("constant 'const' must be finite, got an integer beyond "
                              "the float range") from None
    if not np.isfinite(const):
        raise ValidationError(f"constant 'const' must be finite, got {const}")
    return QuadraticForm(statistics=stats, U=u, V=v, const=const)
